//===- consistency/Witness.cpp - Commit-order certificates ----------------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "consistency/Witness.h"

#include "consistency/Axioms.h"
#include "consistency/SaturationChecker.h"
#include "consistency/SearchChecker.h"

#include <algorithm>

using namespace txdpor;

Relation txdpor::commitOrderRelation(unsigned NumTxns,
                                     const std::vector<unsigned> &Sequence) {
  assert(Sequence.size() == NumTxns && "sequence must cover all txns");
  Relation Co(NumTxns);
  for (unsigned I = 0; I != NumTxns; ++I)
    for (unsigned J = I + 1; J != NumTxns; ++J)
      Co.set(Sequence[I], Sequence[J]);
  return Co;
}

bool txdpor::validateCommitOrder(const History &H, IsolationLevel Level,
                                 const std::vector<unsigned> &Sequence) {
  unsigned N = H.numTxns();
  if (Sequence.size() != N)
    return false;
  std::vector<bool> Seen(N, false);
  for (unsigned T : Sequence) {
    if (T >= N || Seen[T])
      return false;
    Seen[T] = true;
  }
  Relation Co = commitOrderRelation(N, Sequence);
  // Def. 2.2: co must extend so ∪ wr.
  Relation SoWr = H.soWrRelation();
  for (unsigned A = 0; A != N; ++A) {
    bool Ok = true;
    SoWr.forEachSuccessor(A, [&](unsigned B) { Ok &= Co.get(A, B); });
    if (!Ok)
      return false;
  }
  return axiomsHold(H, Co, Level);
}

std::optional<std::vector<unsigned>>
txdpor::findCommitOrder(const History &H, IsolationLevel Level) {
  std::optional<std::vector<unsigned>> Result;
  switch (Level) {
  case IsolationLevel::Trivial: {
    std::vector<unsigned> Order;
    if (H.soWrRelation().topologicalOrder(Order))
      Result = std::move(Order);
    break;
  }
  case IsolationLevel::ReadCommitted:
  case IsolationLevel::ReadAtomic:
  case IsolationLevel::CausalConsistency: {
    // Any topological order of the saturated constraint graph satisfies
    // the (commit-order-independent) axioms.
    SaturationChecker Checker(Level);
    std::vector<unsigned> Order;
    if (Checker.constraintGraph(H).topologicalOrder(Order))
      Result = std::move(Order);
    break;
  }
  case IsolationLevel::SnapshotIsolation:
  case IsolationLevel::Serializability:
    Result = SearchChecker(Level).findCommitOrder(H);
    break;
  }
  assert((!Result || validateCommitOrder(H, Level, *Result)) &&
         "produced certificate failed validation");
  return Result;
}
