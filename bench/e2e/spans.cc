#include "spans.h"

#include <cstdio>
#include <map>

namespace pbs {
namespace e2e {

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(const char* layer, const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

LayerTable SummarizeLayers(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_us[span.parent] += span.duration_us();
  }
  std::map<std::string, LayerRow> rows;
  LayerTable table;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    LayerRow& row = rows[span.layer];
    row.layer = span.layer;
    ++row.calls;
    row.self_ms += (span.duration_us() - child_us[i]) / 1000.0;
    // Busy time counts a span only when no ancestor is in the same layer,
    // so a layer calling itself is not counted twice.
    bool nested = false;
    for (int p = span.parent; p >= 0; p = spans[p].parent) {
      if (std::string(spans[p].layer) == span.layer) {
        nested = true;
        break;
      }
    }
    if (!nested) row.busy_ms += span.duration_us() / 1000.0;
    if (span.parent < 0) table.root_ms += span.duration_us() / 1000.0;
  }
  for (auto& [layer, row] : rows) {
    row.share = table.root_ms > 0.0 ? row.self_ms / table.root_ms : 0.0;
    table.rows.push_back(row);
  }
  return table;
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"request\": %lld, \"parent\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}",
                 i == 0 ? "" : ",", i, s.layer, s.name,
                 static_cast<long long>(s.request), s.parent, s.start_us,
                 s.end_us);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace pbs
