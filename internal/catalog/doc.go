package catalog

// Self-documentation: one JSON-serializable Document describing every
// experiment axis the catalog knows — scenarios, workloads, machines,
// policy plugins with their typed knobs, metrics, and any extra axes
// its caller owns. aqlsweepd serves it as GET /v1/catalog
// so clients can discover valid spec-file names without a binary in
// hand; aqlsweep -list renders the same tables as text.

import "aqlsched/internal/metrics"

// MetricDoc documents one registered measurement.
type MetricDoc struct {
	metrics.Schema
	Primary bool `json:"primary,omitempty"`
}

// Doc is the catalog's full self-description.
type Doc struct {
	Scenarios  []string     `json:"scenarios"`
	Workloads  []string     `json:"workloads"`
	Topologies []string     `json:"topologies"`
	Policies   []PolicyDesc `json:"policies"`
	Metrics    []MetricDoc  `json:"metrics"`
	Axes       []ExtraAxis  `json:"axes,omitempty"`
}

// Document snapshots every table, plus the extra axes given, into
// one serializable Doc. Name lists are sorted, policies sort by
// canonical name, metrics keep registration order (the artifact column
// order).
func Document(extra ...ExtraAxis) Doc {
	doc := Doc{
		Scenarios:  Scenarios.Names(),
		Workloads:  Workloads.Names(),
		Topologies: Topologies.Names(),
		Policies:   PolicyPlugins(),
		Axes:       extra,
	}
	for _, d := range MetricDescs() {
		doc.Metrics = append(doc.Metrics, MetricDoc{Schema: d.Schema(), Primary: d.Primary})
	}
	return doc
}
