// Annotated synchronization primitives + static lock ranks
// (docs/CONCURRENCY.md).
//
// Every lock in src/ is one of these wrappers — the praxi_lint naked-mutex
// rule bans raw std::mutex outside this file — so that two complementary
// checkers cover the whole tree:
//
//   * Clang Thread Safety Analysis (common/annotations.hpp) proves at
//     compile time that guarded state is only touched under its lock and
//     that PRAXI_REQUIRES contracts hold (tools/check.sh --tsa).
//   * The lock-rank checker proves at run time the one property TSA cannot
//     express: lock *ordering*. Each Mutex carries a LockRank; a thread may
//     only acquire a mutex whose rank is strictly greater than every rank
//     it already holds. Any inversion — the necessary ingredient of every
//     lock-order deadlock, including same-rank recursion — aborts
//     immediately with both lock names, turning a once-a-month production
//     hang into a deterministic unit-test failure. The checker is a
//     thread-local array push/pop per acquisition (a few ns next to the
//     lock itself) and is compiled in whenever PRAXI_LOCK_RANK_CHECKS is
//     defined (the default; -DPRAXI_LOCK_RANK_CHECKS=OFF removes it).
//
// The rank table below IS the project's documented lock hierarchy; adding a
// lock means choosing its place in this order (docs/CONCURRENCY.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/annotations.hpp"

namespace praxi::common {

/// The global acquisition order, outermost first: a thread holding a lock
/// of rank R may only acquire locks of rank strictly greater than R.
/// Values are spaced so future locks can slot between existing layers.
enum class LockRank : int {
  /// DiscoveryServer ingest state: dedup trackers, inventory, per-agent
  /// counters. Outermost — held across a whole settle()/process()/
  /// learn_feedback() call while every deeper layer (store, pool, registry,
  /// WAL, and in process() the transport) is exercised.
  kServerState = 10,
  /// TagsetStore contents. Acquired under kServerState by
  /// learn_feedback(), which stores the labeled tagset; the settle path
  /// never touches the store.
  kTagsetStore = 20,
  /// ThreadPool queue. Acquired by submit()/parallel_for under
  /// kServerState (batch classification inside process()) and, with no
  /// lock held, by ShardRouter's per-round fork-join over its shards.
  kThreadPool = 30,
  /// Praxi model-snapshot publisher (core::SnapshotCell): serializes
  /// freeze-and-swap between concurrent publishers, because the freeze
  /// mutates the live learner's write log and spare buffer. Acquired under
  /// kServerState (learn_feedback publishes) but never under the pool lock
  /// (freezing spawns no tasks) and never while holding the WAL or any
  /// deeper lock. Readers never take it — snapshot() takes only
  /// kModelSnapshot.
  kModelPublish = 40,
  /// The snapshot cell's current-epoch pointer (core::SnapshotCell):
  /// snapshot() copies it and a publish swaps it, each under this lock and
  /// nothing else. Readers take it holding at most lower-ranked locks
  /// (kServerState in process()), publishers under kModelPublish. No lock
  /// is ever acquired while it is held, and the retired epoch is dropped
  /// after it is released.
  kModelSnapshot = 45,
  /// WriteAheadLog append buffer + live segment. Acquired under
  /// kServerState on the settle path (docs/DURABILITY.md).
  kWal = 50,
  /// SocketClient connection + resend-buffer state (serializes
  /// send/flush/close).
  kSocketClient = 60,
  /// SocketServer ingest queue. Acquired under kServerState via
  /// DiscoveryServer::process()'s Transport::drain()/ack(), or with no lock
  /// held when a cluster frontend is drained and acked by the ShardRouter.
  kSocketServerState = 70,
  /// SocketServer connection list (accept thread + close).
  kSocketServerConnections = 80,
  /// MetricsRegistry families map (registration + collect only; instrument
  /// updates are lock-free). Innermost: first-use instrument registration
  /// can happen under ANY other lock in the process — the WAL registers
  /// its compaction counters under kWal, the transports under theirs — so
  /// no lock may ever be acquired while this one is held, and none is:
  /// registration and collect() call no component code.
  kMetricsRegistry = 90,
};

/// A std::mutex that participates in both proof systems: it is a TSA
/// capability (PRAXI_GUARDED_BY(mutex_) on fields, PRAXI_REQUIRES(mutex_)
/// on methods) and it carries the LockRank the runtime checker enforces.
/// `name` must outlive the mutex (string literals in practice) — it is what
/// the inversion abort prints.
class PRAXI_CAPABILITY("mutex") Mutex {
 public:
  Mutex(const char* name, LockRank rank) noexcept
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Aborts (never deadlocks) when acquiring would invert the rank order:
  /// the check runs before the underlying lock is touched.
  void lock() PRAXI_ACQUIRE();
  void unlock() PRAXI_RELEASE();

  const char* name() const noexcept { return name_; }
  LockRank rank() const noexcept { return rank_; }

 private:
  friend class CondVar;

  // The one sanctioned raw mutex in the tree — everything else goes
  // through this wrapper so the analysis can see it.
  std::mutex raw_;  // praxi-lint: allow(naked-mutex: the wrapper itself)
  const char* name_;
  LockRank rank_;
};

/// RAII scope lock over Mutex — the only way annotated code should hold
/// one. TSA treats it as a scoped capability: the guarded state is
/// accessible exactly within the guard's lifetime.
class PRAXI_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PRAXI_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() PRAXI_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  friend class CondVar;
  Mutex& mutex_;
};

/// Condition variable bound to the annotated Mutex via its LockGuard.
/// wait() atomically releases the underlying mutex and reacquires it
/// before returning, like std::condition_variable — the guard (and the TSA
/// capability, and the rank-checker entry) stays logically held across the
/// call, which is sound: a blocked thread acquires nothing.
///
/// Spurious wakeups happen; always wait in a condition loop —
/// `while (!ready_) cv_.wait(guard);` — with the condition read inline
/// (not in a lambda: TSA analyzes lambdas as separate functions that do
/// not inherit the caller's held capabilities).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// `guard` must hold the mutex associated with this wait's state.
  void wait(LockGuard& guard);

  void notify_one() noexcept { raw_.notify_one(); }
  void notify_all() noexcept { raw_.notify_all(); }

 private:
  // praxi-lint: allow(naked-mutex: the wrapper itself)
  std::condition_variable raw_;
};

/// True when the rank checker is compiled in (tests use this to gate the
/// inversion death tests).
bool lock_rank_checks_enabled() noexcept;

namespace testhooks {
/// Locks the calling thread currently holds, per the rank checker
/// (always 0 when the checker is compiled out).
std::size_t held_lock_count() noexcept;
}  // namespace testhooks

}  // namespace praxi::common
