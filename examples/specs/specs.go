// Package specs embeds the example sweep spec files. Each file is also
// the built-in sweep of the same name (sweep.Builtin("genmix") parses
// genmix.json), so the two spellings cannot drift apart.
package specs

import "embed"

// FS holds every *.json spec in this directory.
//
//go:embed *.json
var FS embed.FS
