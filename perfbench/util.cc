#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"
#include "memtrace/sinks.h"

namespace perfbench {
namespace {

uint64_t Fmix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string JsonQuote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n') ? ' ' : c;
  }
  return q + "\"";
}

}  // namespace

void Outcome::ProvString(const std::string& key, const std::string& value) {
  Prov(key, JsonQuote(value));
}

void Outcome::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::Add(uint64_t word) {
  ++n_;
  a_ = Fmix(a_ ^ word);
  b_ = Fmix(b_ + word * 0x9e3779b97f4a7c15ULL + n_);
}

void Digest::AddTable(const oblivdb::Table& table) {
  Add(table.size());
  for (const oblivdb::Record& r : table.rows()) {
    Add(r.key);
    Add(r.payload[0]);
    Add(r.payload[1]);
  }
}

void Digest::AddPlanResult(const oblivdb::core::PlanResult& result) {
  AddTable(result.table);
  Add(result.join_rows.size());
  for (const oblivdb::JoinedRecord& r : result.join_rows) {
    Add(r.key);
    Add(r.payload1[0]);
    Add(r.payload1[1]);
    Add(r.payload2[0]);
    Add(r.payload2[1]);
  }
  Add(result.aggregate_rows.size());
  for (const oblivdb::core::JoinGroupAggregate& g : result.aggregate_rows) {
    Add(g.key);
    Add(g.count);
    Add(g.sum_d1);
    Add(g.sum_d2);
  }
}

std::string TraceDigest(const oblivdb::core::PlanPtr& plan) {
  oblivdb::memtrace::HashTraceSink sink;
  oblivdb::core::ExecContext ctx;
  ctx.trace_sink = &sink;
  oblivdb::core::Executor(ctx).Execute(plan);
  return sink.HexDigest() + ":" + std::to_string(sink.access_count());
}

}  // namespace perfbench
