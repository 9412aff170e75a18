// Seeded violation corpus: selection stages writing the metrics registry
// themselves instead of counting into their stats. Never compiled; drives
// the stage-metrics rule test.
#include "match/pipeline.h"

namespace graphql::match {

void FlushSearch(const SearchStats& local, obs::MetricsRegistry* metrics) {
  metrics->GetCounter("match.search.steps")->Increment(local.steps);
}

void FoldShard(obs::MetricsRegistry* metrics, const obs::MetricsRegistry& s) {
  metrics->Merge(s.Snapshot());
}

void RecordCall(const Call& call, const PipelineOptions& options) {
  options.metrics->GetCounter("match.queries")->Increment(1);
  options.metrics->GetHistogram("match.query.us")->Record(call.us);
}

}  // namespace graphql::match
