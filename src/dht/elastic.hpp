// Elastic recovery for the distributed tree: R-way replicated ownership,
// membership change (kill / revive / grow), and checkpoint/restart.
//
// The DHT's owner maps place every tree node on exactly one rank, so a rank
// declared dead by the World's send-retry path takes its coefficients with
// it. This module closes that hole: a ReplicatedStore keeps each entry on
// the first R live ranks of its rendezvous order (owner_map.hpp), writes
// are replicated through to every holder, and repair() restores the R-way
// invariant after any membership change — survivors promote their copies to
// newly preferred ranks, a rejoining rank receives exactly the entries the
// rendezvous order assigns it, and demoted surplus copies are dropped so no
// entry is ever double-owned. An entry whose every holder died is
// unrecoverable and surfaces as a typed fault::FaultError (kDataLost),
// never a hang.
//
// ElasticFunction wraps a ReplicatedStore of leaf coefficient tensors with
// function semantics (scatter, gather, bitwise-deterministic ordering) plus
// a versioned binary snapshot: checkpoint() serializes the whole function
// state and restore() rebuilds it into a world of any size — the
// checkpoint/restart leg of the recovery protocol when replication alone
// cannot recover (R=1, or multiple holders lost between repairs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "dht/owner_map.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"

namespace mh::dht {

/// What one repair() pass moved to restore the R-way replica invariant.
struct RecoveryStats {
  std::size_t copied = 0;   ///< entries re-replicated onto a new holder
  std::size_t dropped = 0;  ///< surplus copies released from demoted ranks
  std::size_t messages = 0;
  double bytes = 0.0;
};

/// An R-way replicated key/value store over simulated ranks. Placement is
/// rendezvous hashing of `placement(key)` (so co-placement policy — e.g.
/// whole subtrees — is the caller's choice) and membership is explicit.
template <typename K, typename V, typename Hash>
class ReplicatedStore {
 public:
  using PlacementFn = std::function<std::uint64_t(const K&)>;

  ReplicatedStore(std::size_t ranks, std::size_t replication,
                  std::uint64_t seed, PlacementFn placement)
      : shards_(ranks),
        alive_(ranks, true),
        replication_(replication < 1 ? 1 : replication),
        seed_(seed),
        placement_(std::move(placement)) {
    MH_CHECK(ranks >= 1, "replicated store needs at least one rank");
    MH_CHECK(placement_ != nullptr, "null placement function");
  }

  std::size_t ranks() const noexcept { return shards_.size(); }
  std::size_t replication() const noexcept { return replication_; }
  bool alive(std::size_t rank) const {
    MH_CHECK(rank < ranks(), "rank out of range");
    return alive_[rank];
  }
  std::size_t live_ranks() const {
    std::size_t n = 0;
    for (const bool a : alive_) n += a ? 1 : 0;
    return n;
  }

  /// The live ranks holding `key`, most-preferred first: the first
  /// min(R, live) live ranks of the key's rendezvous order. Empty only
  /// when every rank of the order is dead.
  std::vector<std::size_t> holders(const K& key) const {
    const auto order =
        rendezvous_order(placement_(key), ranks(), ranks(), seed_);
    std::vector<std::size_t> live;
    for (const std::size_t rank : order) {
      if (!alive_[rank]) continue;
      live.push_back(rank);
      if (live.size() == replication_) break;
    }
    return live;
  }

  /// The most-preferred live holder. Typed kDataLost when every candidate
  /// is dead — the caller gets an error, not a lookup that never resolves.
  std::size_t owner(const K& key) const {
    const auto live = holders(key);
    if (live.empty()) {
      throw fault::FaultError(fault::ErrorCode::kDataLost,
                              "every replica rank of the entry is dead");
    }
    return live.front();
  }

  /// Write-through put: the value lands on every holder. Copies sent to a
  /// rank other than `from_rank` ride the send fault site when `faults` is
  /// armed — an injected failure drops that one copy (a later repair() or
  /// re-execution heals it) instead of failing the put. Throws kDataLost
  /// when no live holder exists.
  void put(std::size_t from_rank, const K& key, V value,
           fault::FaultInjector* faults = nullptr) {
    MH_CHECK(from_rank < ranks(), "rank out of range");
    const auto live = holders(key);
    if (live.empty()) {
      throw fault::FaultError(fault::ErrorCode::kDataLost,
                              "put: every replica rank of the entry is dead");
    }
    for (const std::size_t to : live) {
      if (to != from_rank && faults != nullptr &&
          faults->armed(fault::FaultSite::kSend) &&
          faults->should_fail(fault::FaultSite::kSend)) {
        continue;  // this copy is lost on the wire; self-heals later
      }
      if (shards_[to].insert_or_assign(key, value).second) {
        bump_copies(key, +1);
      }
    }
  }

  /// Lookup from the most-preferred live copy; nullptr when absent on every
  /// live holder (including entries whose write-through was dropped).
  const V* find(const K& key) const {
    for (const std::size_t rank : holders(key)) {
      const auto it = shards_[rank].find(key);
      if (it != shards_[rank].end()) return &it->second;
    }
    return nullptr;
  }
  bool contains(const K& key) const { return find(key) != nullptr; }

  std::size_t shard_size(std::size_t rank) const {
    MH_CHECK(rank < ranks(), "rank out of range");
    return shards_[rank].size();
  }

  /// Distinct keys with at least one live copy.
  std::vector<K> keys() const {
    std::unordered_set<K, Hash> seen;
    for (std::size_t rank = 0; rank < ranks(); ++rank) {
      if (!alive_[rank]) continue;
      for (const auto& [k, v] : shards_[rank]) seen.insert(k);
    }
    return std::vector<K>(seen.begin(), seen.end());
  }
  std::size_t size() const { return keys().size(); }

  /// Fewest live copies over every present entry (replication() when the
  /// store is empty) — the health plane's replication-below-R signal:
  /// after a kill and before repair, entries that lost a copy pull this
  /// below R; repair restores it. O(1): every shard mutation maintains a
  /// copies -> key-count histogram, so the telemetry plane can poll this
  /// every tick without a full store scan (dead shards are always empty —
  /// kill() clears, revive() requires empty — so counting shard membership
  /// counts exactly the live copies).
  std::size_t min_copies() const {
    if (count_hist_.empty()) return replication_;
    return count_hist_.begin()->first;
  }

  struct KillReport {
    std::size_t dropped_copies = 0;  ///< entries the dead rank held
    std::vector<K> lost;  ///< entries with no surviving live copy
  };

  /// Declare `rank` dead: its shard is gone. The report names every entry
  /// that died with it (no other live copy) — the caller decides between a
  /// typed kDataLost error and a checkpoint restart.
  KillReport kill(std::size_t rank) {
    MH_CHECK(rank < ranks(), "rank out of range");
    MH_CHECK(alive_[rank], "rank already dead");
    alive_[rank] = false;
    KillReport report;
    report.dropped_copies = shards_[rank].size();
    for (const auto& [k, v] : shards_[rank]) {
      bool survives = false;
      for (std::size_t other = 0; other < ranks() && !survives; ++other) {
        survives = alive_[other] && shards_[other].contains(k);
      }
      if (!survives) report.lost.push_back(k);
      bump_copies(k, -1);
    }
    shards_[rank].clear();
    return report;
  }

  /// A previously killed rank rejoins, empty; repair() hands it exactly the
  /// entries its rendezvous rank assigns it.
  void revive(std::size_t rank) {
    MH_CHECK(rank < ranks(), "rank out of range");
    MH_CHECK(!alive_[rank], "rank already alive");
    MH_CHECK(shards_[rank].empty(), "revived rank must start empty");
    alive_[rank] = true;
  }

  /// Grow the world by one fresh live rank; returns its index.
  std::size_t add_rank() {
    shards_.emplace_back();
    alive_.push_back(true);
    return ranks() - 1;
  }

  /// Restore the R-way invariant after membership change: every surviving
  /// entry is copied to holders that lack it (replica promotion) and
  /// removed from live ranks its rendezvous order no longer assigns it (no
  /// double-owning after a rejoin). `bytes_per_entry` prices each copy.
  RecoveryStats repair(double bytes_per_entry) {
    RecoveryStats stats;
    for (const K& key : keys()) {
      const auto desired = holders(key);
      std::unordered_set<std::size_t> want(desired.begin(), desired.end());
      // A live copy to clone from (most-preferred holder that has it, else
      // any live rank that does).
      const V* source = find(key);
      if (source == nullptr) {
        for (std::size_t rank = 0; rank < ranks() && source == nullptr;
             ++rank) {
          if (!alive_[rank]) continue;
          const auto it = shards_[rank].find(key);
          if (it != shards_[rank].end()) source = &it->second;
        }
      }
      MH_CHECK(source != nullptr, "keys() returned an entry with no copy");
      for (const std::size_t rank : desired) {
        if (shards_[rank].contains(key)) continue;
        shards_[rank].insert_or_assign(key, *source);
        bump_copies(key, +1);
        ++stats.copied;
        ++stats.messages;
        stats.bytes += bytes_per_entry;
      }
      for (std::size_t rank = 0; rank < ranks(); ++rank) {
        if (!alive_[rank] || want.contains(rank)) continue;
        const std::size_t erased = shards_[rank].erase(key);
        if (erased != 0) bump_copies(key, -1);
        stats.dropped += erased;
      }
    }
    return stats;
  }

  /// Every entry is held by exactly its holder set — no missing replica, no
  /// surplus copy. The test hook behind the membership-change tests.
  bool invariant_ok() const {
    for (const K& key : keys()) {
      const auto desired = holders(key);
      std::unordered_set<std::size_t> want(desired.begin(), desired.end());
      for (std::size_t rank = 0; rank < ranks(); ++rank) {
        const bool has = alive_[rank] && shards_[rank].contains(key);
        if (has != want.contains(rank)) return false;
      }
    }
    return true;
  }

 private:
  // Incremental copy accounting behind min_copies(): per-key live-copy
  // count plus a copies -> #keys histogram. A key at zero copies leaves
  // both maps (it is no longer a present entry).
  void bump_copies(const K& key, int delta) {
    const auto it = copy_count_.find(key);
    const std::size_t old_count = it == copy_count_.end() ? 0 : it->second;
    MH_CHECK(delta > 0 || old_count > 0, "copy count underflow");
    const std::size_t new_count = old_count + static_cast<std::size_t>(delta);
    if (old_count != 0) {
      const auto h = count_hist_.find(old_count);
      if (--h->second == 0) count_hist_.erase(h);
    }
    if (new_count != 0) {
      ++count_hist_[new_count];
      copy_count_[key] = new_count;
    } else {
      copy_count_.erase(key);
    }
  }

  std::vector<std::unordered_map<K, V, Hash>> shards_;
  std::vector<bool> alive_;
  std::size_t replication_;
  std::uint64_t seed_;
  PlacementFn placement_;
  std::unordered_map<K, std::size_t, Hash> copy_count_;
  std::map<std::size_t, std::size_t> count_hist_;
};

/// A multiresolution function held R-way replicated over simulated ranks,
/// with membership change, repair, and versioned checkpoint/restart.
/// Placement co-locates whole subtrees: every leaf is placed by its
/// level-`subtree_level` ancestor, like SubtreeOwnerMap does for primaries.
class ElasticFunction {
 public:
  using Store = ReplicatedStore<mra::Key, Tensor, mra::KeyHash>;

  /// Scatter a reconstructed function's leaves over `ranks` ranks with
  /// `replication`-way write-through (issued from rank 0, like a projector
  /// would).
  ElasticFunction(const mra::Function& fn, std::size_t ranks,
                  int subtree_level, std::size_t replication,
                  std::uint64_t seed = 0);

  const mra::FunctionParams& params() const noexcept { return params_; }
  int subtree_level() const noexcept { return subtree_level_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t ranks() const noexcept { return store_.ranks(); }
  std::size_t live_ranks() const { return store_.live_ranks(); }
  std::size_t replication() const noexcept { return store_.replication(); }
  std::size_t num_leaves() const { return store_.size(); }

  Store& store() noexcept { return store_; }
  const Store& store() const noexcept { return store_; }

  std::size_t owner(const mra::Key& key) const { return store_.owner(key); }
  std::vector<std::size_t> holders(const mra::Key& key) const {
    return store_.holders(key);
  }
  const Tensor* find(const mra::Key& key) const { return store_.find(key); }

  /// Kill a rank; returns the number of leaves that died with it (0 when
  /// every one has a surviving replica). Lost leaves are remembered: any
  /// later gather()/repair() surfaces them as a typed kDataLost error
  /// unless the caller restores from a checkpoint first.
  std::size_t kill(std::size_t rank);
  void revive(std::size_t rank) { store_.revive(rank); }
  std::size_t add_rank() { return store_.add_rank(); }

  /// Restore the R-way invariant (see ReplicatedStore::repair). Throws
  /// kDataLost if any leaf has no surviving copy.
  RecoveryStats repair();

  std::size_t lost_leaves() const noexcept { return lost_; }

  /// Reassemble a single-address-space Function from the surviving copies,
  /// in sorted-key order so the result is bitwise deterministic. Throws
  /// kDataLost when leaves have been lost.
  mra::Function gather() const;

  /// Versioned binary snapshot of the whole function state (placement
  /// parameters included, so a restore reproduces the same rendezvous
  /// orders).
  void checkpoint(std::ostream& os) const;

  /// Rebuild from a snapshot into a world of `ranks` ranks (any size) at
  /// `replication`-way redundancy. Magic/version mismatches throw.
  static ElasticFunction restore(std::istream& is, std::size_t ranks,
                                 std::size_t replication);

 private:
  ElasticFunction(const mra::FunctionParams& params, int subtree_level,
                  std::uint64_t seed, std::size_t ranks,
                  std::size_t replication);
  double leaf_bytes() const;

  mra::FunctionParams params_;
  int subtree_level_;
  std::uint64_t seed_;
  std::size_t lost_ = 0;
  Store store_;
};

}  // namespace mh::dht
