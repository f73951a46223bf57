//===- tests/consistency_random_test.cpp - Checker cross-validation -------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests over random histories:
///  * every production checker agrees with the brute-force Def. 2.2
///    oracle (axioms evaluated over enumerated commit orders);
///  * consistency is monotone along the level chain;
///  * all five levels are prefix-closed (Theorem 3.2) — every downward
///    closed cut of a consistent history stays consistent;
///  * RC / RA / CC are causally extensible (Theorem 3.4) on histories
///    with one pending (so ∪ wr)+-maximal transaction.
///
//===----------------------------------------------------------------------===//

#include "apps/Applications.h"
#include "consistency/BruteForceChecker.h"
#include "consistency/ConsistencyChecker.h"
#include "consistency/Witness.h"
#include "core/Explorer.h"
#include "history/Prefix.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace txdpor;
using namespace txdpor::test;

namespace {

struct SweepParams {
  unsigned Sessions;
  unsigned TxnsPerSession;
  unsigned Vars;
  friend std::ostream &operator<<(std::ostream &OS, const SweepParams &P) {
    return OS << P.Sessions << "s" << P.TxnsPerSession << "t" << P.Vars
              << "v";
  }
};

class RandomHistoryTest : public ::testing::TestWithParam<SweepParams> {
protected:
  RandomHistorySpec spec() const {
    RandomHistorySpec S;
    S.NumSessions = GetParam().Sessions;
    S.TxnsPerSession = GetParam().TxnsPerSession;
    S.NumVars = GetParam().Vars;
    return S;
  }
};

} // namespace

TEST_P(RandomHistoryTest, ProductionMatchesBruteForce) {
  Rng R(GetParam().Sessions * 1000 + GetParam().TxnsPerSession * 10 +
        GetParam().Vars);
  RandomHistorySpec Spec = spec();
  for (unsigned Iter = 0; Iter != 60; ++Iter) {
    History H = makeRandomHistory(R, Spec);
    for (IsolationLevel Level : AllIsolationLevels) {
      BruteForceChecker Oracle(Level);
      EXPECT_EQ(isConsistent(H, Level), Oracle.isConsistent(H))
          << "level " << isolationLevelName(Level) << " on\n"
          << H.str();
    }
  }
}

TEST_P(RandomHistoryTest, ConsistencyMonotoneAlongChain) {
  Rng R(77 + GetParam().Sessions + GetParam().Vars * 13);
  RandomHistorySpec Spec = spec();
  for (unsigned Iter = 0; Iter != 80; ++Iter) {
    History H = makeRandomHistory(R, Spec);
    bool StrongerAccepted = false;
    for (auto It = AllIsolationLevels.rbegin();
         It != AllIsolationLevels.rend(); ++It) {
      bool Cur = isConsistent(H, *It);
      if (StrongerAccepted) {
        EXPECT_TRUE(Cur) << isolationLevelName(*It) << " rejected while a "
                         << "stronger level accepted:\n"
                         << H.str();
      }
      StrongerAccepted = Cur;
    }
  }
}

TEST_P(RandomHistoryTest, PrefixClosure) {
  // Theorem 3.2: all five levels are prefix-closed.
  Rng R(4242 + GetParam().TxnsPerSession);
  RandomHistorySpec Spec = spec();
  for (unsigned Iter = 0; Iter != 40; ++Iter) {
    History H = makeRandomHistory(R, Spec);
    // Random downward-closed cut.
    PrefixCut Cut;
    for (unsigned I = 0; I != H.numTxns(); ++I)
      Cut.push_back(static_cast<uint32_t>(R.nextBelow(H.txn(I).size() + 1)));
    Cut[0] = static_cast<uint32_t>(H.txn(0).size()); // Keep init whole.
    closeDownward(H, Cut);
    History P = takePrefix(H, Cut);
    P.checkWellFormed();
    for (IsolationLevel Level : AllIsolationLevels) {
      if (!isConsistent(H, Level))
        continue;
      EXPECT_TRUE(isConsistent(P, Level))
          << "prefix broke " << isolationLevelName(Level) << "\nfull:\n"
          << H.str() << "prefix:\n"
          << P.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomHistoryTest,
    ::testing::Values(SweepParams{1, 3, 2}, SweepParams{2, 2, 2},
                      SweepParams{3, 1, 2}, SweepParams{2, 2, 3},
                      SweepParams{3, 2, 2}, SweepParams{2, 3, 1},
                      SweepParams{4, 1, 2}, SweepParams{2, 4, 2}),
    [](const auto &Info) {
      return std::to_string(Info.param.Sessions) + "s" +
             std::to_string(Info.param.TxnsPerSession) + "t" +
             std::to_string(Info.param.Vars) + "v";
    });

namespace {

/// Builds a random consistent history with one pending transaction that is
/// (so ∪ wr)+-maximal, by chopping the last block of a consistent history.
std::optional<History> makeMaximalPendingHistory(Rng &R,
                                                 const RandomHistorySpec &Spec,
                                                 IsolationLevel Level) {
  for (unsigned Attempt = 0; Attempt != 50; ++Attempt) {
    History H = makeRandomHistory(R, Spec);
    if (!isConsistent(H, Level))
      continue;
    unsigned Last = H.numTxns() - 1;
    if (H.txn(Last).size() < 2)
      continue;
    // Drop the commit/abort (and possibly more) from the last block; the
    // last block is trivially (so ∪ wr)+-maximal.
    PrefixCut Cut;
    for (unsigned I = 0; I != H.numTxns(); ++I)
      Cut.push_back(static_cast<uint32_t>(H.txn(I).size()));
    Cut[Last] =
        1 + static_cast<uint32_t>(R.nextBelow(H.txn(Last).size() - 1));
    if (!isDownwardClosed(H, Cut))
      continue;
    History P = takePrefix(H, Cut);
    if (!isConsistent(P, Level)) // Prefix closure should make this rare.
      continue;
    return P;
  }
  return std::nullopt;
}

} // namespace

TEST(CausalExtensibilityTest, WeakLevelsAlwaysExtend) {
  // Theorem 3.4: for RC / RA / CC, a (so ∪ wr)+-maximal pending
  // transaction extends with *any* event while preserving consistency —
  // for reads, from some causal predecessor (init qualifies).
  const IsolationLevel Weak[] = {IsolationLevel::ReadCommitted,
                                 IsolationLevel::ReadAtomic,
                                 IsolationLevel::CausalConsistency};
  Rng R(90210);
  RandomHistorySpec Spec;
  Spec.NumSessions = 2;
  Spec.TxnsPerSession = 2;
  Spec.NumVars = 2;
  for (IsolationLevel Level : Weak) {
    unsigned Tested = 0;
    for (unsigned Iter = 0; Iter != 25; ++Iter) {
      std::optional<History> P = makeMaximalPendingHistory(R, Spec, Level);
      if (!P)
        continue;
      ++Tested;
      std::optional<unsigned> Pending = P->pendingTxn();
      ASSERT_TRUE(Pending.has_value());

      // Extension with a write is unique and must stay consistent.
      {
        History Ext = *P;
        Ext.appendEvent(*Pending, Event::makeWrite(0, 99));
        EXPECT_TRUE(isConsistent(Ext, Level))
            << "write extension broke " << isolationLevelName(Level) << "\n"
            << P->str();
      }
      // Extension with a read: some causal predecessor must work.
      {
        History Ext = *P;
        Ext.appendEvent(*Pending, Event::makeRead(0));
        uint32_t Pos = static_cast<uint32_t>(Ext.txn(*Pending).size()) - 1;
        if (Ext.txn(*Pending).isExternalRead(Pos)) {
          Relation Causal = Ext.causalRelation();
          bool AnyConsistent = false;
          for (unsigned W = 0; W != Ext.numTxns() && !AnyConsistent; ++W) {
            if (W == *Pending || !Ext.txn(W).writesVar(0))
              continue;
            if (!Causal.get(W, *Pending))
              continue;
            Ext.setWriter(*Pending, Pos, Ext.txn(W).uid());
            AnyConsistent = isConsistent(Ext, Level);
          }
          EXPECT_TRUE(AnyConsistent)
              << "no causal read extension under "
              << isolationLevelName(Level) << "\n"
              << P->str();
        }
      }
    }
    EXPECT_GT(Tested, 5u) << "generator failed to produce test cases";
  }
}

TEST(CausalExtensibilityTest, Fig6ShowsSiSerNotExtensible) {
  // The paper's Fig. 6: h (without write(x,2)) is SI- and SER-consistent,
  // but its unique causal extension with write(x,2) is not — witnessing
  // Theorem 3.4's negative half.
  constexpr VarId X = 0, Y = 1, Z = 2;
  History H = LitmusBuilder(3)
                  .txn(0, 0).w(Z, 1).r(X, TxnUid::init()).w(Y, 1).commit()
                  .txn(1, 0).w(Z, 2).r(Y, TxnUid::init()).build();
  EXPECT_TRUE(isConsistent(H, IsolationLevel::SnapshotIsolation));
  EXPECT_TRUE(isConsistent(H, IsolationLevel::Serializability));

  std::optional<unsigned> Pending = H.pendingTxn();
  ASSERT_TRUE(Pending.has_value());
  History Ext = H;
  Ext.appendEvent(*Pending, Event::makeWrite(X, 2));
  EXPECT_FALSE(isConsistent(Ext, IsolationLevel::SnapshotIsolation));
  EXPECT_FALSE(isConsistent(Ext, IsolationLevel::Serializability));
  EXPECT_TRUE(isConsistent(Ext, IsolationLevel::CausalConsistency));
}

namespace {

/// \p Writers committed single-write transactions in one session, each
/// reading its predecessor's write: a serializable chain of Writers + 1
/// transactions (the initial one included).
History writerChain(unsigned Writers) {
  LitmusBuilder B(1);
  for (uint32_t I = 0; I != Writers; ++I) {
    B.txn(0, I).r(0, I ? uid(0, I - 1) : TxnUid::init());
    B.w(0, static_cast<Value>(I) + 1).commit();
  }
  return B.build();
}

/// The writer chain of \p Writers, then two transactions in sessions 1
/// and 2 that both read x from the chain's last writer and both write x:
/// a lost update in the last two of Writers + 3 transactions.
History lostUpdateAfterChain(unsigned Writers) {
  History H = writerChain(Writers);
  for (uint32_t S = 1; S != 3; ++S) {
    unsigned T = H.beginTxn(uid(S, 0));
    H.appendEvent(T, Event::makeRead(0));
    H.setWriter(T, 1, uid(0, Writers - 1));
    H.appendEvent(T, Event::makeWrite(0, 100 + S));
    H.appendEvent(T, Event::makeCommit());
  }
  return H;
}

/// The search sets no limit on the number of transactions: chains of 65
/// and 130 decide, and a lost update past 64 transactions is caught.
void expectDecidesPast64Txns(IsolationLevel Level) {
  EXPECT_TRUE(isConsistent(writerChain(64), Level));
  EXPECT_TRUE(isConsistent(writerChain(129), Level));
  History Lost = lostUpdateAfterChain(62);
  ASSERT_EQ(Lost.numTxns(), 65u);
  EXPECT_FALSE(isConsistent(Lost, Level));
  EXPECT_TRUE(isConsistent(Lost, IsolationLevel::CausalConsistency));
}

} // namespace

TEST(SearchLimitTest, SerializabilityDecidesPast64Txns) {
  expectDecidesPast64Txns(IsolationLevel::Serializability);
}

TEST(SearchLimitTest, SnapshotIsolationDecidesPast64Txns) {
  expectDecidesPast64Txns(IsolationLevel::SnapshotIsolation);
}

// tpcc 8x8 has 65 transactions with the initial one. On its first CC end
// states the levels stay ordered (SER ⇒ SI ⇒ CC) and every SI and SER
// certificate validates.
TEST(SearchLimitTest, Tpcc8x8EndStatesPast64Txns) {
  ClientSpec Spec;
  Spec.Sessions = 8;
  Spec.TxnsPerSession = 8;
  ExplorerConfig Config =
      ExplorerConfig::exploreCE(IsolationLevel::CausalConsistency);
  Config.MaxEndStates = 300;
  unsigned EndStates = 0, SiAccepts = 0;
  exploreProgram(makeClientProgram(AppKind::Tpcc, Spec), Config,
                 [&](const History &H) {
    ASSERT_EQ(H.numTxns(), 65u);
    ++EndStates;
    std::optional<std::vector<unsigned>> Si =
        findCommitOrder(H, IsolationLevel::SnapshotIsolation);
    std::optional<std::vector<unsigned>> Ser =
        findCommitOrder(H, IsolationLevel::Serializability);
    if (Ser) {
      EXPECT_TRUE(Si.has_value()) << H.str();
      EXPECT_TRUE(
          validateCommitOrder(H, IsolationLevel::Serializability, *Ser));
    }
    if (Si) {
      ++SiAccepts;
      EXPECT_TRUE(isConsistent(H, IsolationLevel::CausalConsistency));
      EXPECT_TRUE(
          validateCommitOrder(H, IsolationLevel::SnapshotIsolation, *Si));
    }
  });
  EXPECT_EQ(EndStates, 300u);
  EXPECT_GT(SiAccepts, 0u);
  EXPECT_LT(SiAccepts, EndStates);
}
