package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
)

// digestParams is small enough for every `go test` run and still wide
// enough to reach what a two-processor sweep does not: Figure 17's
// four-processor cap, contended state locks, and aggregation over runs.
func digestParams() Params {
	return Params{
		MaxProcs:   5,
		WarmupNs:   20_000_000,
		MeasureNs:  40_000_000,
		Runs:       2,
		Seed:       7,
		ScaleConns: []int{64, 256},
		// One rung of ext-loss's ladder: its send side measures 5 virtual
		// seconds a point whatever the windows above say.
		LossRates: []float64{0.01},
	}
}

// catalogueDigests is, per experiment, the sha256 of every table as
// ppbench prints it (text and CSV) at digestParams. The values were
// recorded on the tree before the catalogue became declared rows and
// the receive pumps one path, so an experiment that still matches runs
// the configurations it ran then, in the order it ran them.
var catalogueDigests = map[string]string{
	"fig02-03":          "644c19b48b2b42a2d6ec47542c11babf617e838023ecd8ca9e69f16412bce676",
	"fig04-05":          "d31f8cb02062d490fe3f145e04927c84511a3d9c650dc226cc9af9279b0a8cca",
	"fig06-07":          "e1fe3d407d6bd4b9962bbe39e9842f24c04b7216c9d24cb41972a2d74cb3e333",
	"fig08-09":          "76ee0a77d045267cc7e193a0e176bdbdbb8cdb32c2bdc81329d567f9a787eebf",
	"fig10":             "f7e7cd9bf8003ed4676bd2608a74033ad20c2062b98e8eb6e8f8273056283ed2",
	"table1":            "9a0ef45c2d5bb84e4f537cac73f83f9de6f50ff0934357a7fa628d552b6c40e1",
	"fig11":             "7f79483cce6706407b89814d93a42997464b8f37f21729024a4a02520528604c",
	"fig12":             "4cea4409d925bd33d6b4ac5e240ba055865d8a4fe3f28210ba99d894ae1b46a4",
	"fig13":             "2a9aca4ad7bdc5f3bd721bcb15b49ed8fafad5e3ae90517116df7b408ab39b9a",
	"fig14":             "3ddf88be3821fbdf5523a5092eee8206f9c5e11636dd4a08bd51a8599ea630eb",
	"fig15":             "7468e6d64d8455fb04fe743d4c4695b26ea0e4186c857364706d5e0eff713d65",
	"fig16":             "9a2a6464d67ed8157877783c5efc265fc07e7c1e97ecc770f44f010c86c5436f",
	"fig17-18":          "3ff4103db3c27ad79a849c692954c50cb8eec420fe802873b257ad2b94beeb09",
	"sec3.2-checksum":   "9138e06d6c36c035049728ae2ab8bd6419b183a48ac9f39d7238fdd019b063af",
	"sec3-wiring":       "9cfb0798f08e74f02c7683cc06625a682e3613c24f192bd91784c6e846c7ed28",
	"sec3.1-maplock":    "f7740934bce8d9e7a75d32a8c7bb068deb41f4e0d4f7b70368a32fb66bce0f5f",
	"sec4.1-wireorder":  "ec3b94f9b8eb6da15fd10929c98535b01ba79e13538c408e39c78fe2b1515ae3",
	"ablation-fifo":     "99e4e465d556a8755643e6d611de76384d0c5cfbfa977a2cd0229c35b144ec5c",
	"ablation-mapcache": "0c21a39120be15846cac0b1d6b8cdb760191bf6deee3ca55c78537ab8af45827",
	"ablation-ackrate":  "3113546c3e9a0d32d457ec4d2dd01f7c602ff1133339f11ba2fcc62be89ef1af",
	"ablation-hdrpred":  "b1de64fee877c33a6407c38c40fb94895acb7ca64b280e15f797b651c8c404db",
	"ext-skew":          "8981f7c71d2c905049d5fc0d1c8b2af8f1235f7c6c4f2947116affbf35ce5cd9",
	"ext-strategies":    "fc9d8cddc173057d50d20b7e0ea3e3287400a10476bb556eb292e5d78502f9af",
	"ext-loss":          "1787f52562da604d19cbd1df729362b2f19f5ec713fc4a6913001dd2a6c1e1d9",
	"ext-steer":         "3babf626480b57b4985d92db08a27d02b1497a3e4cad375b7849906b2c145ebf",
	"ext-batch":         "ae01c10ba9ccc334ce235eb1f034e34cc00cb253062d8314cf4c01fd420a2880",
	"ext-scale":         "a482c3667ea35f7acc6e37ab066f9052796ed3458ce1b2ab0b9d24176f752382",
	"ablation-wheel":    "901a2bd5af57afa5ec497ace1deda5c2cdf9f45bdde5472488b1d5fa1e0a1a38",
}

// TestCatalogueDigest is the in-tree twin of CI's results_full.txt
// diff: every simulated experiment's output is pinned byte for byte.
// ext-host is left out (its ladder follows the machine's CPU count and
// half its columns are wall-clock).
func TestCatalogueDigest(t *testing.T) {
	for _, s := range Catalog() {
		paper := strings.HasPrefix(s.ID, "fig") || s.ID == "table1"
		if s.ID == "ext-host" || testing.Short() && !paper {
			continue
		}
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := s.Run(digestParams())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(render(tables)))
			if got := hex.EncodeToString(sum[:]); got != catalogueDigests[s.ID] {
				t.Errorf("output moved: digest %q, recorded %q", got, catalogueDigests[s.ID])
			}
		})
	}
}

// TestCatalogueConfigsBuild walks the catalogue as data: every
// configuration every declared sweep will submit must be one core.Build
// accepts, the ablations and extensions included.
func TestCatalogueConfigsBuild(t *testing.T) {
	p := digestParams()
	specs, configs := 0, 0
	for _, s := range Catalog() {
		cfgs := s.Configs(p)
		if len(s.Sweeps) > 0 {
			specs++
		}
		for i, cfg := range cfgs {
			if _, err := core.Build(cfg); err != nil {
				t.Errorf("%s: configuration %d (%d procs): %v", s.ID, i, cfg.Procs, err)
			}
			if cfg.Procs < 1 || cfg.Procs > p.MaxProcs || cfg.Seed != p.Seed {
				t.Errorf("%s: configuration %d sweeps to %d procs at seed %d", s.ID, i, cfg.Procs, cfg.Seed)
			}
		}
		configs += len(cfgs)
	}
	if specs < 25 {
		t.Errorf("only %d specs declare their sweeps", specs)
	}
	t.Logf("%d configurations over %d declared specs", configs, specs)
}
