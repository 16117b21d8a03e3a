#include "dht/elastic.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

namespace mh::dht {

namespace {

bool key_less(const mra::Key& a, const mra::Key& b) {
  if (a.level() != b.level()) return a.level() < b.level();
  for (std::size_t m = 0; m < a.ndim(); ++m) {
    if (a.translation(m) != b.translation(m))
      return a.translation(m) < b.translation(m);
  }
  return false;
}

// Checkpoint framing. Bump kCheckpointVersion on any layout change; restore
// rejects mismatches with a typed error instead of misreading the stream.
constexpr std::uint32_t kCheckpointMagic = 0x4d48434bu;  // "MHCK"
constexpr std::uint32_t kCheckpointVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  MH_CHECK(static_cast<bool>(is), "checkpoint stream truncated");
  return value;
}

}  // namespace

ElasticFunction::ElasticFunction(const mra::Function& fn, std::size_t ranks,
                                 int subtree_level, std::size_t replication,
                                 std::uint64_t seed)
    : ElasticFunction(fn.params(), subtree_level, seed, ranks, replication) {
  MH_CHECK(!fn.compressed(), "scatter requires reconstructed form");
  for (const mra::Key& key : fn.leaf_keys()) {
    store_.put(/*from_rank=*/0, key, fn.leaf_coeffs(key));
  }
}

ElasticFunction::ElasticFunction(const mra::FunctionParams& params,
                                 int subtree_level, std::uint64_t seed,
                                 std::size_t ranks, std::size_t replication)
    : params_(params),
      subtree_level_(subtree_level),
      seed_(seed),
      store_(ranks, replication, seed,
             // The co-location SubtreeOwnerMap gives primaries: a replica
             // holds whole subtrees.
             [subtree_level](const mra::Key& key) {
               return subtree_anchor(key, subtree_level).hash();
             }) {
  MH_CHECK(subtree_level >= 0, "subtree level must be non-negative");
}

double ElasticFunction::leaf_bytes() const {
  double bytes = 8.0;
  for (std::size_t m = 0; m < params_.ndim; ++m)
    bytes *= static_cast<double>(params_.k);
  return bytes;
}

std::size_t ElasticFunction::kill(std::size_t rank) {
  const auto report = store_.kill(rank);
  lost_ += report.lost.size();
  return report.lost.size();
}

RecoveryStats ElasticFunction::repair() {
  if (lost_ > 0) {
    throw fault::FaultError(
        fault::ErrorCode::kDataLost,
        "repair: " + std::to_string(lost_) +
            " leaves have no surviving replica; restore from a checkpoint");
  }
  return store_.repair(leaf_bytes());
}

mra::Function ElasticFunction::gather() const {
  if (lost_ > 0) {
    throw fault::FaultError(
        fault::ErrorCode::kDataLost,
        "gather: " + std::to_string(lost_) +
            " leaves have no surviving replica; restore from a checkpoint");
  }
  std::vector<mra::Key> keys = store_.keys();
  std::sort(keys.begin(), keys.end(), key_less);
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  leaves.reserve(keys.size());
  for (const mra::Key& key : keys) {
    const Tensor* coeffs = store_.find(key);
    MH_CHECK(coeffs != nullptr, "keys() returned an entry with no copy");
    leaves.emplace_back(key, *coeffs);
  }
  return mra::Function::from_leaves(params_, leaves);
}

void ElasticFunction::checkpoint(std::ostream& os) const {
  if (lost_ > 0) {
    throw fault::FaultError(fault::ErrorCode::kDataLost,
                            "checkpoint: function has lost leaves");
  }
  write_pod(os, kCheckpointMagic);
  write_pod(os, kCheckpointVersion);
  write_pod(os, static_cast<std::int32_t>(subtree_level_));
  write_pod(os, seed_);
  write_pod(os, static_cast<std::uint64_t>(params_.ndim));
  write_pod(os, static_cast<std::uint64_t>(params_.k));
  write_pod(os, params_.thresh);
  write_pod(os, static_cast<std::int32_t>(params_.initial_level));
  write_pod(os, static_cast<std::int32_t>(params_.max_level));

  std::vector<mra::Key> keys = store_.keys();
  std::sort(keys.begin(), keys.end(), key_less);
  write_pod(os, static_cast<std::uint64_t>(keys.size()));
  for (const mra::Key& key : keys) {
    write_pod(os, static_cast<std::int32_t>(key.level()));
    for (std::size_t m = 0; m < params_.ndim; ++m) {
      write_pod(os, static_cast<std::int64_t>(key.translation(m)));
    }
    const Tensor* coeffs = store_.find(key);
    MH_CHECK(coeffs != nullptr, "keys() returned an entry with no copy");
    write_pod(os, static_cast<std::uint64_t>(coeffs->ndim()));
    for (std::size_t m = 0; m < coeffs->ndim(); ++m) {
      write_pod(os, static_cast<std::uint64_t>(coeffs->dim(m)));
    }
    os.write(reinterpret_cast<const char*>(coeffs->data()),
             static_cast<std::streamsize>(coeffs->size() * sizeof(double)));
  }
  MH_CHECK(static_cast<bool>(os), "checkpoint stream write failed");
}

ElasticFunction ElasticFunction::restore(std::istream& is, std::size_t ranks,
                                         std::size_t replication) {
  const auto magic = read_pod<std::uint32_t>(is);
  MH_CHECK(magic == kCheckpointMagic, "not an elastic checkpoint stream");
  const auto version = read_pod<std::uint32_t>(is);
  MH_CHECK(version == kCheckpointVersion,
           "unsupported elastic checkpoint version");
  const int subtree_level = read_pod<std::int32_t>(is);
  const auto seed = read_pod<std::uint64_t>(is);
  mra::FunctionParams params;
  params.ndim = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  params.k = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  params.thresh = read_pod<double>(is);
  params.initial_level = read_pod<std::int32_t>(is);
  params.max_level = read_pod<std::int32_t>(is);
  MH_CHECK(params.ndim >= 1 && params.ndim <= kMaxTensorDim,
           "checkpoint: tensor order out of range");
  // The basis range compute_two_scale accepts; it also bounds k^d, so a
  // leaf's element count cannot overflow.
  MH_CHECK(params.k >= 1 && params.k <= 64, "checkpoint: k out of range");

  ElasticFunction out(params, subtree_level, seed, ranks, replication);
  const auto nleaves = read_pod<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < nleaves; ++i) {
    const int level = read_pod<std::int32_t>(is);
    std::array<std::int64_t, kMaxTensorDim> l{};
    for (std::size_t m = 0; m < params.ndim; ++m) {
      l[m] = read_pod<std::int64_t>(is);
    }
    const mra::Key key(params.ndim, level,
                       std::span<const std::int64_t>{l.data(), params.ndim});
    // Every leaf is a k^d cube: Apply reads k^d doubles from each.
    const auto tensor_ndim =
        static_cast<std::size_t>(read_pod<std::uint64_t>(is));
    MH_CHECK(tensor_ndim == params.ndim,
             "checkpoint: leaf tensor order does not match ndim");
    std::array<std::size_t, kMaxTensorDim> shape{};
    for (std::size_t m = 0; m < tensor_ndim; ++m) {
      shape[m] = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
      MH_CHECK(shape[m] == params.k,
               "checkpoint: leaf tensor is not a k^d cube");
    }
    Tensor coeffs(std::span<const std::size_t>{shape.data(), tensor_ndim});
    is.read(reinterpret_cast<char*>(coeffs.data()),
            static_cast<std::streamsize>(coeffs.size() * sizeof(double)));
    MH_CHECK(static_cast<bool>(is), "checkpoint stream truncated");
    out.store_.put(/*from_rank=*/0, key, std::move(coeffs));
  }
  return out;
}

}  // namespace mh::dht
