#ifndef PBS_KVS_VERSION_H_
#define PBS_KVS_VERSION_H_

#include <cstdint>
#include <string>

namespace pbs {
namespace kvs {

/// Last-writer-wins stamp providing the *total* order the quorum read path
/// needs when picking "the most recent value" among replica responses:
/// ordered by wall-clock timestamp, writer id breaking ties.
struct VersionStamp {
  double timestamp = 0.0;
  int32_t writer = 0;

  friend bool operator<(const VersionStamp& a, const VersionStamp& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.writer < b.writer;
  }
  friend bool operator==(const VersionStamp& a, const VersionStamp& b) {
    return a.timestamp == b.timestamp && a.writer == b.writer;
  }
};

/// A replicated object version. `sequence` is the global total-order rank
/// assigned by the writing client (1, 2, 3, ...); the staleness metrics are
/// defined over it ("k versions stale"). `stamp` drives replica-side
/// supersession and read-side freshest-wins.
struct VersionedValue {
  int64_t sequence = 0;
  VersionStamp stamp;
  std::string value;

  /// True when this version supersedes `other` under the LWW total order.
  bool NewerThan(const VersionedValue& other) const {
    return other.stamp < stamp;
  }
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_VERSION_H_
