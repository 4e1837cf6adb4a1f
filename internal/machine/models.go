package machine

import "rcpn/internal/arm"

// StrongARMSpec is the StrongARM (SA-110) model of the paper's evaluation:
// a simple five-stage pipeline
//
//	Fetch -> Decode/Issue -> Execute -> Memory -> Writeback
//
// with one RCPN place per pipeline latch (FD, EX, ME, WB) plus the virtual
// end place, and one sub-net per ARM operation class — "there are six RCPN
// sub-nets in the StrongArm model" (§5). Results forward from the ME and WB
// latches (ALU results enter ME, load results enter WB). The multiplier
// holds EX for a data-dependent number of cycles (early termination), and
// block transfers stay in ME moving one register per step (the paper's
// footnote 1). Its units are StrongARMUnits: 16KB I/D caches and static
// not-taken branches, since the SA-110 has no branch predictor and every
// taken branch pays the two-cycle refetch. TestSpecModels pins it.
func StrongARMSpec() Spec {
	route := func() []Seg {
		return []Seg{
			{Stage: "FD", Exit: RoleIssue},
			{Stage: "EX", Exit: RoleExecute},
			{Stage: "ME", Exit: RoleMem},
			{Stage: "WB", Exit: RoleWriteback},
		}
	}
	routes := map[arm.Class][]Seg{}
	for c := arm.Class(0); c < arm.NumClasses; c++ {
		routes[c] = route()
	}
	return Spec{
		Name: "strongarm",
		Stages: []StageSpec{
			{Name: "FD"}, {Name: "EX"}, {Name: "ME"}, {Name: "WB"},
		},
		FrontEnd: []string{"FD"},
		Routes:   routes,
		Bypass:   []string{"ME", "WB"},
		Units:    StrongARMUnits,
	}
}

// ARM9Spec describes an ARM9TDMI-like machine: the same classic in-order
// organization as the StrongARM but with a two-stage fetch (the ARM9 splits
// fetch and decode further), which deepens the taken-branch penalty by one
// cycle.
func ARM9Spec() Spec {
	route := func() []Seg {
		return []Seg{
			{Stage: "DE", Exit: RoleIssue},
			{Stage: "EX", Exit: RoleExecute},
			{Stage: "ME", Exit: RoleMem},
			{Stage: "WB", Exit: RoleWriteback},
		}
	}
	routes := map[arm.Class][]Seg{}
	for c := arm.Class(0); c < arm.NumClasses; c++ {
		routes[c] = route()
	}
	return Spec{
		Name: "arm9",
		Stages: []StageSpec{
			{Name: "F1"}, {Name: "DE"}, {Name: "EX"}, {Name: "ME"}, {Name: "WB"},
		},
		FrontEnd: []string{"F1", "DE"},
		Routes:   routes,
		Bypass:   []string{"ME", "WB"},
		Units:    StrongARMUnits,
	}
}

// XScaleSpec is the XScale (PXA250) model of Fig. 9: an in-order-issue,
// out-of-order-completion processor with a shared four-stage front end and
// three parallel back ends —
//
//	F1 -> F2 -> ID -> RF -> X1 -> X2 -> XWB   (main/ALU pipe)
//	                   \-> D1 -> D2 -> DWB    (memory pipe)
//	                   \-> M1 -> M2 -> MWB    (MAC pipe)
//
// ALU results can complete while older loads are still in the memory pipe;
// the register-reference lock interface (reg package) carries all the
// resulting data hazards, exactly as in §3.1. Results forward from X2, D2
// and M2. The MAC takes 2-5 cycles depending on the multiplier, one more
// than the StrongARM's (MACExtra). Its units are XScaleUnits: 32KB I/D
// caches and the XScale core's dynamic branch prediction. TestSpecModels
// pins it.
func XScaleSpec() Spec {
	alu := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "X1", Exit: RoleExecute},
		{Stage: "X2", Exit: RoleWriteback},
	}
	memPipe := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "D1", Exit: RoleExecute},
		{Stage: "D2", Exit: RoleMemWriteback},
	}
	mac := []Seg{
		{Stage: "RF", Exit: RoleIssue},
		{Stage: "M1", Exit: RoleExecute},
		{Stage: "M2", Exit: RoleWriteback},
	}
	return Spec{
		Name: "xscale",
		Stages: []StageSpec{
			{Name: "F1"}, {Name: "F2"}, {Name: "ID"}, {Name: "RF"},
			{Name: "X1"}, {Name: "X2"},
			{Name: "D1"}, {Name: "D2"},
			{Name: "M1"}, {Name: "M2"},
		},
		FrontEnd: []string{"F1", "F2", "ID", "RF"},
		Routes: map[arm.Class][]Seg{
			arm.ClassDataProc:   alu,
			arm.ClassBranch:     alu,
			arm.ClassSystem:     alu,
			arm.ClassLoadStore:  memPipe,
			arm.ClassLoadStoreM: memPipe,
			arm.ClassMult:       mac,
		},
		Bypass:   []string{"X2", "D2", "M2"},
		MACExtra: 1,
		Units:    XScaleUnits,
	}
}
