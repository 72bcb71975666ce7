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
	"fig06-07":          "9f4aff4c45e338a04bf0c1ebebeb2f28e226399f7897524c2102c3cb717f9a2e",
	"fig08-09":          "d91e27418c0677e22308cd958098dbf2f750a3978938d3b6623e0bfda547ba8d",
	"fig10":             "813e357a5c3d99c0cd2afd2123a5f9a881d0db675e8701df8d994614657d7d4a",
	"table1":            "a363a8e7794e512a16aa3e04797fe11f698703ac7519adc4c51dcdde4d8da5e1",
	"fig11":             "311e08af0c4e45016e717f3df0be21f2ba4624b665d451798669c2a6e98b42ef",
	"fig12":             "d0507c6f3cf45d230b7a8eb782049af99dd4e5245cbddde85792f97d89f3fb80",
	"fig13":             "30519666607830216b1128137accc21602416fccddc60e26d5b5c67fd06602ac",
	"fig14":             "e2f0427ed3067d0f333029c9bf8e4e749a7f3ea0da619b0eddfce4172d79a558",
	"fig15":             "e8ee347a841c552ad2764b14200e07ec1ddf2a6184dbbecaf7d54e862ffa9b44",
	"fig16":             "f79076c8c75c6d5c10ca7361e7f3c7ba2252e4b037ca4077e57e06cfc083019f",
	"fig17-18":          "b96cbc9a3f1856687c2d2937f49c46dd58d42ef238f60d18cbca27723f55c2f9",
	"sec3.2-checksum":   "9138e06d6c36c035049728ae2ab8bd6419b183a48ac9f39d7238fdd019b063af",
	"sec3-wiring":       "9cfb0798f08e74f02c7683cc06625a682e3613c24f192bd91784c6e846c7ed28",
	"sec3.1-maplock":    "f7740934bce8d9e7a75d32a8c7bb068deb41f4e0d4f7b70368a32fb66bce0f5f",
	"sec4.1-wireorder":  "29cfe53745173ae6f73b359bf99f48f25bc7ef35aceb5441ad38df07e8e1b74d",
	"ablation-fifo":     "130eaf22e062f0b7f2d0d5e1f3bbcb497f09969eea8a89a9009efe2c84885ed0",
	"ablation-mapcache": "0c21a39120be15846cac0b1d6b8cdb760191bf6deee3ca55c78537ab8af45827",
	"ablation-ackrate":  "03e214a213cfb42994200281a91025939b3908bf580e0917adbcca2995da362f",
	"ablation-hdrpred":  "2efb0ddd9dc34fe131ad02f620e58ae75a2941256e7d23c868b06a2f0a0871bd",
	"ext-skew":          "a440f186cd16e4c0f7cd4e1f37536de9be3b8f38fe61136d734596bb664a27a3",
	"ext-strategies":    "c92a1a935892aca4b73cc247427c2f5d85d3706fee8f138ba624246e8c67f6fa",
	"ext-loss":          "c1342f42e6c61bf4e6c4e4bf7d7e57ded5f2456e542ee22b1e61222507eda2e8",
	"ext-steer":         "3babf626480b57b4985d92db08a27d02b1497a3e4cad375b7849906b2c145ebf",
	"ext-batch":         "d07fb293929db351f46ca63f6370ce11657842d0c3a768f4ea33d31d43024fd2",
	"ext-scale":         "27d471cd63a2fb8431ca2444cb13543cf0f625b32395c1ef92c385db7553985a",
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
