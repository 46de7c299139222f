package simserve

import (
	"bytes"
	"math"
	"testing"
)

// FuzzJobSpec drives arbitrary bytes through what POST /jobs does
// before anything is admitted -- the HTTP body decoder, withDefaults,
// validate -- and holds the outcome to: an error, or a spec a world can
// be built from (N, NP >= 1 within the caps, Steps >= 0, finite
// positive DT, Tol and Eta, a known physics). Never a panic.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"physics":"gravity","n":10000,"np":4,"steps":3}`,
		`{"physics":"sph","n":200,"np":2,"steps":1,"dt":0.004}`,
		`{"physics":"vortex","n":12,"np":2,"steps":2,"ic":"rings"}`,
		`{"n":300,"np":2,"dtmode":"block","eta":0.02,"chaos":"seed=7,crash=1,crashphase=walk"}`,
		`{"n":1,"np":1,"eta":-5}`, `{"n":1,"np":1,"dt":1e999}`, `{"n":1,"np":1,"tol":-0}`,
		`{"n":1,"np":1,"evalworkers":2}`, `{"n":9223372036854775807,"np":1}`, `{"physics":"vortex","n":4611686018427387904,"np":1}`,
		`{"n":1,"np":1}{"n":2}`, `[]`, `null`, ``, `{"n":"1"}`, `{"chaos":"crash=NaN","n":1,"np":1}`,
	} {
		f.Add([]byte(seed))
	}
	const maxBodies, maxNP = 4096, 64 // small cap: an accepted spec has its bodies generated below
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		sp = sp.withDefaults()
		if _, err := sp.validate(maxBodies, maxNP); err != nil {
			return
		}
		if sp.N < 1 || sp.NP < 1 || sp.NP > maxNP || sp.Steps < 0 || sp.Bodies() < 1 || sp.Bodies() > maxBodies {
			t.Errorf("accepted sizes n=%d np=%d steps=%d bodies=%d", sp.N, sp.NP, sp.Steps, sp.Bodies())
		}
		for name, v := range map[string]float64{"dt": sp.DT, "tol": sp.Tol, "eta": sp.Eta} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("accepted %s = %v", name, v)
			}
		}
		if p := sp.plan(); p.System.Len() != sp.Bodies() || p.Physics == nil {
			t.Errorf("plan of %+v: %d bodies, physics %v", sp, p.System.Len(), p.Physics)
		}
	})
}
