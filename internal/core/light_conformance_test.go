package core_test

import (
	"errors"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/light"
	"ebv/internal/script"
	"ebv/internal/statusdb"
)

// lightAt returns a light header chain holding env's headers plus
// header, when header attaches to them; attached reports whether it did.
func lightAt(t testing.TB, env *core.ConformanceEnv, header blockmodel.Header) (hc *light.HeaderChain, attached bool) {
	t.Helper()
	hc = light.NewHeaderChain()
	if _, err := hc.Connect(env.Headers); err != nil {
		t.Fatal(err)
	}
	_, err := hc.Connect([]blockmodel.Header{header})
	return hc, err == nil
}

// TestConformanceCorpusLight replays the block corpus through
// light.VerifyBlock: the kernel without UV must report the full node's
// exact text on every case except the UV-decided ones, which it
// accepts, and the bad link, whose header never enters its chain.
func TestConformanceCorpusLight(t *testing.T) {
	env := core.NewConformanceEnv(t)
	eng := script.NewEngine(env.Scheme)
	for _, c := range env.Blocks {
		hc, _ := lightAt(t, env, c.Block.Header)
		_, err := light.VerifyBlock(hc, c.Block.Encode(nil), eng)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.Light {
			t.Errorf("%s:\n  light: %q\n  want:  %q (full node: %q)", c.Name, got, c.Light, c.Want)
		}
	}
	hc, _ := lightAt(t, env, env.Honest.Header)
	if _, err := light.VerifyBlock(hc, env.Honest.Encode(nil), eng); err != nil {
		t.Fatalf("honest block: %v", err)
	}
}

// uvDecided reports whether a full-node verdict came from the UV
// oracle, which a light client does not have.
func uvDecided(err error) bool {
	return errors.Is(err, core.ErrSpentOutput) ||
		errors.Is(err, statusdb.ErrUnknownBlock) ||
		errors.Is(err, statusdb.ErrOutOfRange)
}

// FuzzLightMatchesFullNode feeds mutated corpus blocks to the full
// node's kernel and to light.VerifyBlock: both must reach the same
// verdict with the same error text, unless UV decided the full node's
// rejection. Undecodable bytes must fail both, and a header the light
// client's chain refuses (no link, no proof of work) must be rejected
// by the full node too.
func FuzzLightMatchesFullNode(f *testing.F) {
	env := core.NewConformanceEnv(f)
	eng := script.NewEngine(env.Scheme)
	f.Add(env.Honest.Encode(nil))
	for _, c := range env.Blocks {
		f.Add(c.Block.Encode(nil))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, decodeErr := blockmodel.DecodeEBVBlock(raw)
		if decodeErr != nil {
			hc, _ := lightAt(t, env, env.Honest.Header)
			if _, err := light.VerifyBlock(hc, raw, eng); !errors.Is(err, light.ErrBadBlock) {
				t.Fatalf("undecodable block: light verdict %v", err)
			}
			return
		}
		hc, attached := lightAt(t, env, b.Header)
		_, lightErr := light.VerifyBlock(hc, raw, eng)
		fullErr := env.Check(b)
		switch {
		case !attached:
			if fullErr == nil {
				t.Fatalf("full node accepted a block whose header the light chain refuses (light: %v)", lightErr)
			}
		case uvDecided(fullErr):
		case (fullErr == nil) != (lightErr == nil) || (fullErr != nil && fullErr.Error() != lightErr.Error()):
			t.Fatalf("verdicts differ:\n  full:  %v\n  light: %v", fullErr, lightErr)
		}
	})
}
