//===- core/Dedup.h - Subtree dedup & session-symmetry reduction ----------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unfolding-style subtree deduplication: a canonical fingerprint of a
/// WorkItem (its history under the table's program and base levels),
/// memoized in a sharded table so isomorphic subtrees are expanded once.
/// Modeled on POR-SE's event-structure unfolding (canonical configuration
/// fingerprints in a shared table); adapted here to the transactional
/// exploration tree, where the symmetry worth exploiting is *session
/// renaming* in programs with structurally identical sessions.
///
/// The fingerprint renames session ids to a canonical permutation first
/// (DedupMode::Symmetry, core/ExplorerConfig.h). Sessions are partitioned
/// once per table into *structural classes* (same transaction bodies, same
/// count, same base level); within each class a canonical order is chosen
/// per item by a two-round color refinement over per-session
/// event-sequence digests. Renaming is sound because a structural-class
/// permutation π maps the program to itself: π applied to a reachable item
/// yields a reachable item whose subtree is the π-image of the original's,
/// and per-session level verdicts are invariant under within-class
/// renaming. A wrong (but deterministic) canonical choice can only cost
/// effectiveness, never soundness of the fingerprint itself — the
/// fingerprint hashes the *renamed* item exactly.
///
/// Without renaming the table would be pure overhead: strong optimality
/// (Thm. 5.1) means explore-ce never reaches the same item twice, so only
/// renamed repeats can ever hit (tests/dedup_test.cpp checks that no
/// ordered history is visited twice). A renamed repeat first appears at a
/// read-branch child (§5.1) or a swap child (§5.2) — every other item is a
/// deterministic extension of its parent — so the engine probes only the
/// items whose pending transaction ends in an external read.
///
/// Only the history is hashed. The cursor snapshot is a pure function of
/// it (semantics/Executor.h: replay is a pure function of a transaction's
/// log and its read values; tests/dedup_test.cpp checks the engine's
/// carried cursors against a full replay at every item), so two items
/// with renaming-equal histories have renaming-equal cursors.
///
/// The table is internally synchronized (sharded mutexes) and its probe
/// entry points are const, so the one engine instance shared by the
/// sequential and parallel drivers covers both.
///
//===----------------------------------------------------------------------===//

#ifndef TXDPOR_CORE_DEDUP_H
#define TXDPOR_CORE_DEDUP_H

#include "consistency/IsolationLevel.h"
#include "history/History.h"
#include "program/Program.h"

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace txdpor {

/// A 128-bit fingerprint: two independently-seeded 64-bit avalanche chains
/// over the same element stream, so accidental collisions need both chains
/// to collide at once.
struct Fingerprint {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const Fingerprint &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Order-insensitive exact fingerprint of a history alone (logs sorted by
/// uid, no session renaming). Hashes exactly the information canonicalKey
/// serializes, so canonicalKey equality ⇔ fingerprint equality up to hash
/// collisions (asserted over fuzz corpora in tests/dedup_test.cpp).
Fingerprint historyFingerprint(const History &H);

/// The memoized explored-fingerprint table of one exploration run: every
/// fingerprint is kept until the run ends. Constructed by the
/// ExplorationEngine when ExplorerConfig::Dedup is Symmetry; shared by
/// every driver that run uses.
class DedupTable {
public:
  /// \p Levels must be the engine's *resolved* per-session assignment —
  /// it both salts the fingerprint (so tables are never reused across
  /// semantics) and separates structural session classes.
  DedupTable(const Program &Prog, const LevelAssignment &Levels);

  /// The canonical fingerprint of a WorkItem, computed from its history
  /// \p H alone: the cursor snapshot is a pure function of the history
  /// (semantics/Executor.h), Depth is exploration bookkeeping and CState is
  /// derived from the history, so none of them participates.
  Fingerprint fingerprint(const History &H) const;

  /// Inserts \p F; returns true iff it was not already present (i.e. the
  /// subtree rooted at the fingerprinted item is new). Thread-safe.
  bool insertIfNew(const Fingerprint &F) const;

private:
  uint32_t classOf(uint32_t Session) const {
    return Session == TxnUid::InitSession ? InitClass : ClassOf[Session];
  }

  /// Renaming-invariant digest of block \p I: its position, uid index and
  /// events, with writers by (class, index). Seeds the session colors.
  uint64_t blockDigest(const History &H, unsigned I) const;

  static constexpr uint32_t InitClass = 0xffffffffu;
  static constexpr unsigned NumShards = 16;

  /// One lock-striped sixteenth of the memo table.
  struct Shard {
    mutable std::mutex M;
    mutable std::unordered_set<Fingerprint, FingerprintHash> Set;
  };

  unsigned NumSessions;
  /// Session → structural class id.
  std::vector<uint32_t> ClassOf;
  /// Fold of the program text + resolved levels: items from different
  /// semantics can never alias.
  uint64_t Salt0 = 0;
  uint64_t Salt1 = 0;
  std::array<Shard, NumShards> Shards;
};

} // namespace txdpor

#endif // TXDPOR_CORE_DEDUP_H
