package bench

import (
	"fmt"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
)

// The bench-cdc matrix: halving vs CDC map construction over the adversarial
// boundary-shift corpora (internal/corpus/adversarial.go, DESIGN.md §16).
// Every arm runs a full collection session and is convergence-verified; the
// per-scenario winner is what advisor.Recommend's shift detection encodes.

// cdcScenario names one adversarial corpus and its generator.
type cdcScenario struct {
	name     string
	generate func(scale float64, seed int64) (v1, v2 *corpus.Tree)
}

// cdcScenarios are the matrix rows. logs-heavy and dbdump are the acceptance
// scenarios (CDC must beat halving on total wire bytes); vmimage and
// binrelease bound the mode's behavior on block-aligned and section-shifted
// binaries.
var cdcScenarios = []cdcScenario{
	{"logs-heavy", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultHeavyLogProfile(s).Generate(seed)
	}},
	{"dbdump", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultDBDumpProfile(s).Generate(seed)
	}},
	{"vmimage", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultVMImageProfile(s).Generate(seed)
	}},
	{"binrelease", func(s float64, seed int64) (*corpus.Tree, *corpus.Tree) {
		return corpus.DefaultBinaryReleaseProfile(s).Generate(seed)
	}},
}

// cdcArm is one (scenario, mode) measurement.
type cdcArm struct {
	Mode      string `json:"mode"` // halving | cdc
	WireBytes int64  `json:"wire_bytes"`
	Roundtrip int    `json:"roundtrips"`
	FilesCDC  int    `json:"files_cdc,omitempty"`
	CDCChunks int64  `json:"cdc_chunks,omitempty"`
	// Converged reports that the reconstructed collection matched version 2
	// byte for byte — checked for every arm, not sampled.
	Converged bool `json:"converged"`
}

// CDCScenarioReport is one matrix row: both arms plus the verdict.
type CDCScenarioReport struct {
	Scenario   string   `json:"scenario"`
	Files      int      `json:"files"`
	TotalBytes int      `json:"total_bytes"`
	Arms       []cdcArm `json:"arms"`
	// Winner is the mode with fewer total wire bytes.
	Winner string `json:"winner"`
	// CDCRatio is cdc wire bytes / halving wire bytes (< 1 means CDC won).
	CDCRatio float64 `json:"cdc_ratio"`
}

// CDCReport is the JSON artifact (BENCH_cdc.json) of the halving-vs-CDC
// map-construction matrix.
type CDCReport struct {
	Experiment string              `json:"experiment"`
	Scale      float64             `json:"scale"`
	Seed       int64               `json:"seed"`
	Scenarios  []CDCScenarioReport `json:"scenarios"`
	Note       string              `json:"note"`
}

// runCDCArm syncs v1 toward v2 in the given mode and returns the measured
// arm. The convergence check compares the full reconstructed collection, so
// a mode that corrupted even one byte cannot win a row.
func runCDCArm(v1, v2 *corpus.Tree, mode core.MapMode) (cdcArm, error) {
	arm := cdcArm{Mode: mode.String()}
	srv, err := collection.NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		return arm, err
	}
	cli := collection.NewClient(v1.Map())
	cli.MapMode = mode
	r, err := runSession(srv, cli)
	if err != nil {
		return arm, fmt.Errorf("bench: cdc (%s): %w", mode, err)
	}
	arm.WireBytes = r.client.Total()
	arm.Roundtrip = r.client.Roundtrips
	arm.FilesCDC = r.client.FilesCDC
	arm.CDCChunks = r.client.CDCChunks
	arm.Converged = collection.VerifyAgainst(r.result.Files, v2.Map()) == nil
	return arm, nil
}

// measureCDC runs the full matrix.
func measureCDC(opts Options) (*CDCReport, error) {
	rep := &CDCReport{
		Experiment: "cdc.map",
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		Note: "halving vs CDC map construction per adversarial scenario; wire bytes are whole-session " +
			"totals (both directions, framing included) and every arm is convergence-verified",
	}
	for _, sc := range cdcScenarios {
		v1, v2 := sc.generate(opts.Scale, opts.Seed)
		row := CDCScenarioReport{
			Scenario:   sc.name,
			Files:      len(v2.Files),
			TotalBytes: v2.TotalBytes(),
		}
		var halving, cdcRun cdcArm
		var err error
		if halving, err = runCDCArm(v1, v2, core.MapHalving); err != nil {
			return nil, err
		}
		if cdcRun, err = runCDCArm(v1, v2, core.MapCDC); err != nil {
			return nil, err
		}
		row.Arms = []cdcArm{halving, cdcRun}
		if halving.WireBytes > 0 {
			row.CDCRatio = float64(cdcRun.WireBytes) / float64(halving.WireBytes)
		}
		row.Winner = core.MapHalving.String()
		if cdcRun.WireBytes < halving.WireBytes {
			row.Winner = core.MapCDC.String()
		}
		if !halving.Converged || !cdcRun.Converged {
			return nil, fmt.Errorf("bench: cdc scenario %s: arm failed convergence (halving=%v cdc=%v)",
				sc.name, halving.Converged, cdcRun.Converged)
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}
	return rep, nil
}

// CDCMap is the table view of the matrix for the msbench sweep.
func CDCMap(opts Options) *Table {
	rep, err := measureCDC(opts)
	if err != nil {
		panic(fmt.Sprintf("bench: cdc map: %v", err))
	}
	t := &Table{
		Title:   "Extension — CDC map construction vs recursive halving (adversarial corpora)",
		Columns: []string{"halving KB", "cdc KB", "cdc/halving", "cdc chunks", "converged"},
	}
	for _, row := range rep.Scenarios {
		conv := 0.0
		if row.Arms[0].Converged && row.Arms[1].Converged {
			conv = 1
		}
		t.Rows = append(t.Rows, Row{
			Name: row.Scenario,
			Values: []float64{
				float64(row.Arms[0].WireBytes) / 1024,
				float64(row.Arms[1].WireBytes) / 1024,
				row.CDCRatio,
				float64(row.Arms[1].CDCChunks),
				conv,
			},
		})
	}
	t.Notes = append(t.Notes,
		"wire bytes are whole-session totals, both directions, framing included",
		"cdc/halving < 1 means content-defined boundaries beat the power-of-two grid")
	return t
}
