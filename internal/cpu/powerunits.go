package cpu

import (
	"fmt"

	"bpredpower/internal/bpred"
	"bpredpower/internal/btb"
	"bpredpower/internal/config"
	"bpredpower/internal/frontend"
	"bpredpower/internal/gating"
	"bpredpower/internal/power"
)

// powerUnits holds the handles the pipeline charges each cycle.
type powerUnits struct {
	predTables []*power.Unit // direction-predictor tables
	// targetUnits are the branch-target mechanism's arrays: BTB tag + data,
	// or the single next-line predictor table.
	targetUnits []*power.Unit
	rasUnit     *power.Unit
	ppdUnit     *power.Unit

	il1Data, il1Tag *power.Unit
	itlbUnit        *power.Unit
	dl1Data, dl1Tag *power.Unit
	dtlbUnit        *power.Unit
	l2Data, l2Tag   *power.Unit

	jrsUnit *power.Unit

	renameUnit  *power.Unit
	windowUnit  *power.Unit
	lsqUnit     *power.Unit
	regfileUnit *power.Unit
	ialuUnit    *power.Unit
	imultUnit   *power.Unit
	faluUnit    *power.Unit
	fmultUnit   *power.Unit
	resultBus   *power.Unit
}

// machineSpec declares the simulated machine's structures in meter
// registration order. All geometry and transform handling lives in package
// frontend; this is the only place the cpu package says *what* exists, never
// *how* it is costed. It is a free function of the options, config, and a few
// derived geometry numbers so that the live simulator (buildPowerModel) and
// the standalone repricing meter (NewMeter) construct provably identical unit
// sets — they cannot drift because they share this one definition.
func machineSpec(opt Options, cfg config.Processor, predTables []bpred.TableSpec, btbTagBits, il1Lines, jrsEntries int) frontend.Spec {
	structures := []frontend.Structure{
		frontend.Predictor{Tables: predTables},
	}
	if opt.LinePredictor {
		structures = append(structures, frontend.LinePredictor{Lines: il1Lines})
	} else {
		structures = append(structures, frontend.BTB{
			Sets:    cfg.BTBEntries / cfg.BTBWays,
			Ways:    cfg.BTBWays,
			TagBits: btbTagBits,
		})
	}
	structures = append(structures,
		frontend.RAS{Entries: cfg.RASEntries},
		frontend.PPD{Entries: il1Lines},
	)
	if jrsEntries > 0 {
		structures = append(structures, frontend.JRS{Entries: jrsEntries})
	}
	structures = append(structures,
		frontend.Cache{Label: "il1", Group: power.GroupFetch, Config: cfg.IL1, VAddrBits: cfg.VAddrBits, Ports: 1},
		frontend.Cache{Label: "dl1", Group: power.GroupDMem, Config: cfg.DL1, VAddrBits: cfg.VAddrBits, Ports: cfg.MemPorts},
		frontend.Cache{Label: "ul2", Group: power.GroupL2, Config: cfg.L2, VAddrBits: cfg.VAddrBits, Ports: 1},
		frontend.TLB{Label: "itlb", Group: power.GroupFetch, Entries: cfg.TLBEntries, Ports: 1},
		frontend.TLB{Label: "dtlb", Group: power.GroupDMem, Entries: cfg.TLBEntries, Ports: cfg.MemPorts},
		frontend.Execution{Units: []frontend.Fixed{
			{Name: "rename", Ports: cfg.DecodeWidth},
			{Name: "window", Ports: 3 * cfg.IssueWidth},
			{Name: "lsq", Ports: 2 * cfg.MemPorts},
			{Name: "regfile", Ports: 3 * cfg.IssueWidth},
			{Name: "ialu", Ports: cfg.IntALU},
			{Name: "imult", Ports: cfg.IntMultDiv},
			{Name: "falu", Ports: cfg.FPALU},
			{Name: "fmult", Ports: cfg.FPMultDiv},
			{Name: "resultbus", Ports: cfg.IssueWidth},
		}},
	)
	return frontend.Spec{
		Structures: structures,
		Transforms: frontend.Transforms{
			OldArrayModel:   opt.OldArrayModel,
			SquarifyClosest: opt.SquarifyClosest,
			BankedPredictor: opt.BankedPredictor,
			PPD:             opt.PPD,
		},
	}
}

func (s *Sim) frontendSpec() frontend.Spec {
	jrs := 0
	if j := s.gate.JRSTable(); j != nil {
		jrs = j.Entries()
	}
	return machineSpec(s.opt, s.cfg, s.pred.Tables(), s.btb.TagBits(s.cfg.VAddrBits), s.il1.NumLines(), jrs)
}

// NewMeter builds the power meter a simulation under opt would build, without
// a program or a pipeline: the same Options normalization as New, the same
// structure list (via machineSpec), the same registry. Loading a cached
// activity vector into it with Meter.SetActivity therefore prices that
// activity exactly as the original simulation would have — bit-identical
// closed-form folds over bit-identical counters on an identically
// constructed unit set.
func NewMeter(opt Options) (*power.Meter, error) {
	opt, cfg := normalizeOptions(opt)
	jrs := 0
	if j := gating.New(opt.Gating).JRSTable(); j != nil {
		jrs = j.Entries()
	}
	spec := machineSpec(opt, cfg,
		opt.Predictor.Build().Tables(),
		btb.New(cfg.BTBEntries, cfg.BTBWays).TagBits(cfg.VAddrBits),
		cfg.IL1.NumLines(),
		jrs)
	m := power.NewMeter(cfg.CycleSeconds())
	m.Style = opt.ClockGating
	if _, err := frontend.NewRegistry().Build(spec, m); err != nil {
		return nil, fmt.Errorf("cpu: building power model: %w", err)
	}
	return m, nil
}

// buildPowerModel constructs the Meter and all units through the frontend
// registry, then binds the per-cycle charge handles by unit name.
func (s *Sim) buildPowerModel() error {
	m := power.NewMeter(s.cfg.CycleSeconds())
	m.Style = s.opt.ClockGating
	s.meter = m

	built, err := frontend.NewRegistry().Build(s.frontendSpec(), m)
	if err != nil {
		return fmt.Errorf("cpu: building power model: %w", err)
	}

	s.pw.predTables = built.StructureUnits("bpred")
	if s.opt.LinePredictor {
		s.pw.targetUnits = built.StructureUnits("linepred")
	} else {
		s.pw.targetUnits = built.StructureUnits("btb")
	}
	s.pw.rasUnit = built.Unit("ras")
	s.pw.ppdUnit = built.Unit("ppd")
	s.pw.jrsUnit = built.Unit("jrs")

	s.pw.il1Data, s.pw.il1Tag = built.Unit("il1.data"), built.Unit("il1.tag")
	s.pw.dl1Data, s.pw.dl1Tag = built.Unit("dl1.data"), built.Unit("dl1.tag")
	s.pw.l2Data, s.pw.l2Tag = built.Unit("ul2.data"), built.Unit("ul2.tag")
	s.pw.itlbUnit = built.Unit("itlb")
	s.pw.dtlbUnit = built.Unit("dtlb")

	s.pw.renameUnit = built.Unit("rename")
	s.pw.windowUnit = built.Unit("window")
	s.pw.lsqUnit = built.Unit("lsq")
	s.pw.regfileUnit = built.Unit("regfile")
	s.pw.ialuUnit = built.Unit("ialu")
	s.pw.imultUnit = built.Unit("imult")
	s.pw.faluUnit = built.Unit("falu")
	s.pw.fmultUnit = built.Unit("fmult")
	s.pw.resultBus = built.Unit("resultbus")
	return nil
}
