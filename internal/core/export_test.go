package core

// GeneratePlanReference exposes the sequential reference planner to the
// external test package, which property-tests that the indexed parallel
// planner emits byte-identical plans.
var GeneratePlanReference = generatePlanReference

// IndexBuilds reports how many PTCs have been compiled so far.
func IndexBuilds() int64 { return indexBuilds.Load() }

// AlignDevicesPerHolder exposes the per-holder alignment AlignDevices
// is held to.
var AlignDevicesPerHolder = alignDevicesPerHolder
