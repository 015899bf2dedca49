package exp

import "fmt"

// Experiment is one named, runnable experiment.
type Experiment struct {
	ID   string
	Run  func(Config) (Table, error)
	Note string
}

// All returns every experiment in presentation order: the paper's figures
// first, then the ablations and extensions.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3a", Run: Fig3a, Note: "model error-rate CDF vs density"},
		{ID: "fig3b", Run: Fig3b, Note: "measured vs model flux by hop"},
		{ID: "fig4", Run: Fig4, Note: "recursive flux briefing, 3 users"},
		{ID: "fig5", Run: Fig5, Note: "instant localization, full flux"},
		{ID: "fig6a", Run: Fig6a, Note: "localization vs sampling %"},
		{ID: "fig6b", Run: Fig6b, Note: "localization vs density"},
		{ID: "fig7", Run: Fig7, Note: "tracking cases incl. crossing"},
		{ID: "fig8a", Run: Fig8a, Note: "tracking vs sampling %"},
		{ID: "fig8b", Run: Fig8b, Note: "tracking vs density"},
		{ID: "fig10a", Run: Fig10a, Note: "trace-driven vs sampling %"},
		{ID: "fig10b", Run: Fig10b, Note: "trace-driven vs max speed"},
		{ID: "ablation-search", Run: AblationSearch, Note: "exhaustive vs conditional search"},
		{ID: "ablation-importance", Run: AblationImportance, Note: "importance sampling on/off"},
		{ID: "ablation-smoothing", Run: AblationSmoothing, Note: "flux smoothing passes"},
		{ID: "countermeasure", Run: Countermeasure, Note: "traffic reshaping defense"},
		{ID: "noise", Run: NoiseRobustness, Note: "measurement-noise robustness"},
		{ID: "baseline-ekf", Run: BaselineEKF, Note: "SMC vs EKF baseline tracker"},
		{ID: "ablation-heading", Run: AblationHeading, Note: "heading-informed prediction"},
		{ID: "ablation-packet", Run: AblationPacketLevel, Note: "fluid vs packet-level sniffing"},
		{ID: "aggregation", Run: AggregationDefense, Note: "TAG aggregation defense"},
		{ID: "figRobust", Run: FigRobust, Note: "tracking under degraded sensing"},
		{ID: "figCoarse", Run: FigCoarse, Note: "coarse shortlist size vs accuracy"},
		{ID: "figShard", Run: FigShard, Note: "field sharding: seams, halos, work"},
		{ID: "figByzantine", Run: FigByzantine, Note: "Byzantine breakdown curve: liars × robust defense"},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}
