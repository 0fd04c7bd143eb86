package experiment

import (
	"testing"

	"retri/internal/oracle"
	"retri/internal/shard"
)

// TestSweepChecks pins every audited sweep's gate: the first failing row,
// in row order, fails the sweep with an error naming the sweep and the
// row; rows that must carry a report fail without one; rows that need not
// carry one pass without one.
func TestSweepChecks(t *testing.T) {
	clean := &oracle.Report{PacketsAudited: 10}
	misdelivered := &oracle.Report{PacketsAudited: 10, Misdeliveries: 1}
	cases := []struct {
		name string
		res  interface{ Check() error }
		want string // "" when the gate passes
	}{
		{"chaos clean", ChaosResult{Rows: []ChaosRow{{Profile: "storm", Policy: WidthFixed, Oracle: clean}}}, ""},
		{"chaos misdelivery", ChaosResult{Rows: []ChaosRow{
			{Profile: "calm", Policy: WidthFixed, Oracle: clean},
			{Profile: "storm", Policy: WidthAdaptiveTurnover, Reliable: true, Oracle: misdelivered},
		}}, "chaos storm adaptive-turnover arq: oracle: 1 misdeliveries"},
		{"chaos no report", ChaosResult{Rows: []ChaosRow{{Profile: "calm", Policy: WidthFixed}}},
			"chaos calm fixed bare: no oracle report attached"},
		{"chaos soak violation", ChaosResult{Rows: []ChaosRow{
			{Profile: "cascade", Policy: WidthFixed, Oracle: clean, SoakViolations: 2, FirstViolation: "at 5s: stale id"},
			{Profile: "storm", Policy: WidthFixed, Oracle: misdelivered},
		}}, "chaos cascade fixed bare: 2 soak checkpoint violations (first: at 5s: stale id)"},
		{"multihop misdelivery", MultihopResult{Rows: []MultihopRow{
			{Arm: MultihopFixed, Oracle: clean}, {Arm: MultihopAdaptive, Oracle: misdelivered},
		}}, "multihop adaptive-turnover: oracle: 1 misdeliveries"},
		{"multihop AFF arm without report", MultihopResult{Rows: []MultihopRow{{Arm: MultihopFixed}}},
			"multihop fixed: no oracle report attached"},
		{"multihop dynaddr arm", MultihopResult{Rows: []MultihopRow{{Arm: MultihopFixed, Oracle: clean}, {Arm: MultihopDynaddr}}}, ""},
		{"strategies misdelivery", StrategiesResult{Rows: []StrategyRow{
			{Strategy: "uniform", T: 5, Oracle: clean}, {Strategy: "sequential", T: 10, Oracle: misdelivered},
		}}, "strategies sequential T=10: oracle: 1 misdeliveries"},
		{"strategies unaudited", StrategiesResult{Rows: []StrategyRow{{Strategy: "uniform", T: 5}}}, ""},
		{"dynamics misdelivery", DynamicsResult{Rows: []DynamicsRow{{Scenario: DynChurn, Policy: WidthAdaptive, Oracle: misdelivered}}},
			"dynamics churn adaptive: oracle: 1 misdeliveries"},
		{"dynamics unaudited", DynamicsResult{Rows: []DynamicsRow{{Scenario: DynChurn, Policy: WidthFixed}}}, ""},
		{"recovery misdelivery", RecoveryResult{Rows: []RecoveryRow{
			{Scheme: AFFScheme(8, SelListening), Fault: FaultCorrupt, Oracle: misdelivered},
		}}, "recovery AFF 8-bit (listening) corrupt bare: oracle: 1 misdeliveries"},
		{"recovery static row", RecoveryResult{Rows: []RecoveryRow{
			{Scheme: AFFScheme(8, SelListening), Fault: FaultCorrupt, Oracle: clean},
			{Scheme: StaticScheme(16), Fault: FaultCorrupt, Reliable: true},
		}}, ""},
		{"massive misdelivery", MassiveResult{Rows: []MassiveRow{
			{Population: 2000, Policy: WidthFixed}, {Population: 2000, Policy: WidthAdaptiveTurnover, Counters: shard.Counters{Misdeliveries: 3}},
		}}, "massive n=2000,policy=adaptive-turnover: 3 audited misdeliveries"},
	}
	for _, tc := range cases {
		err := tc.res.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
	}
}
