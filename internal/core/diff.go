package core

// DiffPlan is GeneratePlan(from, to, opts); prev is ignored.
//
// It used to thread the previous plan's source index and its pure-local
// assignments into the next plan against the same source. The index now
// belongs to the source PTC itself (index.go: compiled once, shared by
// every plan, alignment and validation that reads the PTC), which gives
// repeat pricing the sharing without a previous plan to carry around,
// and with it gone the replay table cost more than the tier-0 work it
// skipped. The name stays for the benchmark module, which still calls
// it.
func DiffPlan(prev *Plan, from, to *PTC, opts PlanOptions) (*Plan, error) {
	return GeneratePlan(from, to, opts)
}
