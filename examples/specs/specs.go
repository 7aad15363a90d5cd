// Package specs embeds the sweep spec files. Each file is the built-in
// sweep of the same name (sweep.Builtin("genmix") parses genmix.json),
// and every built-in is one of them. bench.json is the grid of
// BenchmarkSweepParallel and of the committed bench golden artifacts,
// so its definition must stay stable.
package specs

import "embed"

// FS holds every *.json spec in this directory.
//
//go:embed *.json
var FS embed.FS
