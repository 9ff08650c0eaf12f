// Package suite assembles the streamsched analyzer set in one place, so
// cmd/streamschedlint and the tests agree on what "the suite" is.
package suite

import (
	"streamsched/internal/analysis"
	"streamsched/internal/analysis/ctxcheck"
	"streamsched/internal/analysis/determcheck"
	"streamsched/internal/analysis/hotpathcheck"
)

// All is every analyzer streamschedlint runs, in reporting order.
var All = []*analysis.Analyzer{
	determcheck.Analyzer,
	ctxcheck.Analyzer,
	hotpathcheck.Analyzer,
}
