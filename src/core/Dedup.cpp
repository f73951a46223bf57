//===- core/Dedup.cpp - Subtree dedup & session-symmetry reduction --------===//
//
// Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
// Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
//
//===----------------------------------------------------------------------===//

#include "core/Dedup.h"

#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace txdpor;

namespace {

/// Two independently-seeded order-sensitive chains over one element
/// stream; finalized into a 128-bit fingerprint.
struct Mix128 {
  uint64_t A;
  uint64_t B;

  Mix128(uint64_t SeedA, uint64_t SeedB) : A(SeedA), B(SeedB) {}

  void add(uint64_t V) {
    A = hashCombine64(A, V);
    B = hashCombine64(B, V ^ 0x5bf0f5e383bd9a1bULL);
  }

  Fingerprint done() const { return {splitmix64(A), splitmix64(B)}; }
};

//===----------------------------------------------------------------------===//
// Structural session classes
//===----------------------------------------------------------------------===//

bool exprEq(const Expr::NodeRef &A, const Expr::NodeRef &B) {
  if (!A || !B)
    return !A && !B;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return A->constVal() == B->constVal();
  case ExprKind::Local:
    return A->localId() == B->localId();
  case ExprKind::Unary:
    return A->unaryOp() == B->unaryOp() && exprEq(A->lhs(), B->lhs());
  case ExprKind::Binary:
    return A->binaryOp() == B->binaryOp() && exprEq(A->lhs(), B->lhs()) &&
           exprEq(A->rhs(), B->rhs());
  }
  return false;
}

bool instrEq(const Instr &A, const Instr &B) {
  return A.Kind == B.Kind && A.Target == B.Target && A.Var == B.Var &&
         exprEq(A.Guard.Node, B.Guard.Node) && exprEq(A.Rhs.Node, B.Rhs.Node);
}

/// Structural equality of two sessions' code (names are metadata and do
/// not participate: renaming a session must not change its class).
bool sessionStructEq(const Program &P, uint32_t S1, uint32_t S2) {
  if (P.numTxns(S1) != P.numTxns(S2))
    return false;
  for (unsigned T = 0, E = P.numTxns(S1); T != E; ++T) {
    const std::vector<Instr> &A = P.txn({S1, T}).body();
    const std::vector<Instr> &B = P.txn({S2, T}).body();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0, N = A.size(); I != N; ++I)
      if (!instrEq(A[I], B[I]))
        return false;
  }
  return true;
}

void mixExpr(Mix128 &M, const Expr::NodeRef &E) {
  if (!E) {
    M.add(0);
    return;
  }
  M.add(static_cast<uint64_t>(E->kind()) + 1);
  switch (E->kind()) {
  case ExprKind::Const:
    M.add(static_cast<uint64_t>(E->constVal()));
    break;
  case ExprKind::Local:
    M.add(E->localId());
    break;
  case ExprKind::Unary:
    M.add(static_cast<uint64_t>(E->unaryOp()));
    mixExpr(M, E->lhs());
    break;
  case ExprKind::Binary:
    M.add(static_cast<uint64_t>(E->binaryOp()));
    mixExpr(M, E->lhs());
    mixExpr(M, E->rhs());
    break;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// historyFingerprint
//===----------------------------------------------------------------------===//

Fingerprint txdpor::historyFingerprint(const History &H) {
  // Logs sorted by uid, exactly the rendering order of canonicalKey, so
  // key equality and fingerprint equality coincide (modulo collisions).
  std::vector<unsigned> Order(H.numTxns());
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    return H.txn(A).uid() < H.txn(B).uid();
  });
  Mix128 M(0x8f1bbcdc5a827999ULL, 0xca62c1d6d76aa478ULL);
  M.add(H.numTxns());
  for (unsigned I : Order) {
    const TransactionLog &Log = H.txn(I);
    M.add(Log.uid().packed());
    M.add(Log.size());
    for (uint32_t P = 0, E = static_cast<uint32_t>(Log.size()); P != E; ++P) {
      const Event &Ev = Log.event(P);
      M.add(static_cast<uint64_t>(Ev.Kind));
      M.add(Ev.Var);
      M.add(static_cast<uint64_t>(Ev.Val));
      if (std::optional<TxnUid> W = Log.writerOf(P)) {
        M.add(1);
        M.add(W->packed());
      } else {
        M.add(0);
      }
    }
  }
  return M.done();
}

//===----------------------------------------------------------------------===//
// DedupTable
//===----------------------------------------------------------------------===//

DedupTable::DedupTable(const Program &Prog, const LevelAssignment &Levels)
    : NumSessions(Prog.numSessions()) {
  // Partition sessions into structural classes: same base level, same
  // transaction count, structurally equal bodies. Class ids ascend with
  // first occurrence, so the layout is a pure function of the program —
  // identical across every item of one run.
  ClassOf.assign(NumSessions, 0);
  std::vector<uint32_t> Reps;
  for (uint32_t S = 0; S != NumSessions; ++S) {
    uint32_t Class = static_cast<uint32_t>(Reps.size());
    for (uint32_t C = 0; C != Reps.size(); ++C)
      if (Levels.levelFor(Reps[C]) == Levels.levelFor(S) &&
          sessionStructEq(Prog, Reps[C], S)) {
        Class = C;
        break;
      }
    if (Class == Reps.size())
      Reps.push_back(S);
    ClassOf[S] = Class;
  }

  // Salt: the program text plus the resolved assignment, so fingerprints
  // from different semantics can never alias (tables are per-run anyway;
  // this is defense in depth for serialized fingerprints in dumps).
  Mix128 M(0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL);
  M.add(NumSessions);
  for (uint32_t S = 0; S != NumSessions; ++S) {
    M.add(static_cast<uint64_t>(Levels.levelFor(S)));
    M.add(Prog.numTxns(S));
    for (unsigned T = 0, E = Prog.numTxns(S); T != E; ++T) {
      const std::vector<Instr> &Body = Prog.txn({S, T}).body();
      M.add(Body.size());
      for (const Instr &I : Body) {
        M.add(static_cast<uint64_t>(I.Kind));
        M.add(I.Target);
        M.add(I.Var);
        mixExpr(M, I.Guard.Node);
        mixExpr(M, I.Rhs.Node);
      }
    }
  }
  Fingerprint Salt = M.done();
  Salt0 = Salt.Lo;
  Salt1 = Salt.Hi;
}

uint64_t DedupTable::blockDigest(const History &H, unsigned I) const {
  const TransactionLog &Log = H.txn(I);
  TxnUid U = Log.uid();
  uint64_t D = hashCombine64(0x9e3779b97f4a7c15ULL, I);
  D = hashCombine64(D, U.isInit() ? ~0ull : static_cast<uint64_t>(U.Index));
  D = hashCombine64(D, Log.size());
  for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz; ++P) {
    const Event &Ev = Log.event(P);
    D = hashCombine64(D, static_cast<uint64_t>(Ev.Kind));
    D = hashCombine64(D, Ev.Var);
    D = hashCombine64(D, static_cast<uint64_t>(Ev.Val));
    if (std::optional<TxnUid> W = Log.writerOf(P)) {
      D = hashCombine64(D, classOf(W->Session));
      D = hashCombine64(D, W->Index);
    }
  }
  return D;
}

Fingerprint DedupTable::fingerprint(const History &H) const {
  unsigned N = H.numTxns();

  // Pass 1, the canonical session permutation π: sessions are renamed to
  // their rank under a sort by (structural class, refined color, original
  // id). Round-0 colors are the class plus the commutative sum of the
  // session's renaming-invariant block digests; round 1 adds the round-0
  // color of each read's writer session, so same-class sessions told apart
  // only by whom they read from still sort apart. The class blocks of the
  // sort are a pure function of the program, so π only ever permutes
  // within a class — fingerprint equality certifies equality modulo a
  // structural-class renaming, never across classes.
  std::vector<uint64_t> D0(NumSessions);
  for (uint32_t S = 0; S != NumSessions; ++S)
    D0[S] = hashCombine64(0x9159015a3070dd17ULL, ClassOf[S]);
  for (unsigned I = 0; I != N; ++I) {
    TxnUid U = H.txn(I).uid();
    assert((U.isInit() || U.Session < NumSessions) &&
           "history names an unknown session");
    if (!U.isInit())
      D0[U.Session] += splitmix64(blockDigest(H, I));
  }
  std::vector<uint64_t> D1 = D0;
  for (unsigned I = 0; I != N; ++I) {
    const TransactionLog &Log = H.txn(I);
    if (Log.uid().isInit())
      continue;
    for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz; ++P)
      if (std::optional<TxnUid> W = Log.writerOf(P))
        if (!W->isInit())
          D1[Log.uid().Session] += splitmix64(D0[W->Session]);
  }
  std::vector<uint32_t> Sorted(NumSessions);
  std::iota(Sorted.begin(), Sorted.end(), 0u);
  std::sort(Sorted.begin(), Sorted.end(), [&](uint32_t A, uint32_t B) {
    if (ClassOf[A] != ClassOf[B])
      return ClassOf[A] < ClassOf[B];
    if (D1[A] != D1[B])
      return D1[A] < D1[B];
    return A < B;
  });
  std::vector<uint32_t> Pi(NumSessions);
  for (uint32_t Rank = 0; Rank != NumSessions; ++Rank)
    Pi[Sorted[Rank]] = Rank;

  // Pass 2: one order-sensitive chain over the blocks in block order, with
  // every uid renamed by π. The initial transaction renames to itself, so
  // a renamed uid can never alias it (InitSession is above every real
  // session id).
  auto Renamed = [&](TxnUid U) {
    return U.isInit() ? U.packed()
                      : (static_cast<uint64_t>(Pi[U.Session]) << 32) | U.Index;
  };
  Mix128 M(Salt0, Salt1);
  M.add(N);
  for (unsigned I = 0; I != N; ++I) {
    const TransactionLog &Log = H.txn(I);
    M.add(Renamed(Log.uid()));
    M.add(Log.size());
    for (uint32_t P = 0, Sz = static_cast<uint32_t>(Log.size()); P != Sz; ++P) {
      const Event &Ev = Log.event(P);
      M.add(static_cast<uint64_t>(Ev.Kind));
      M.add(Ev.Var);
      M.add(static_cast<uint64_t>(Ev.Val));
      if (std::optional<TxnUid> W = Log.writerOf(P)) {
        M.add(1);
        M.add(Renamed(*W));
      } else {
        M.add(0);
      }
    }
  }
  return M.done();
}

bool DedupTable::insertIfNew(const Fingerprint &F) const {
  const Shard &Sh = Shards[F.Hi & (NumShards - 1)];
  std::lock_guard<std::mutex> Guard(Sh.M);
  return Sh.Set.insert(F).second;
}
