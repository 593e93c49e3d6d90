#pragma once
// Compute-once memo: the one in-flight/ready map behind coll::PlanCache and
// exp::ScenarioCache.
//
// get(key, compute) returns the value for `key`, running compute() only if
// no caller has produced it yet:
//  * the first caller for a key inserts a null placeholder and computes
//    outside the lock;
//  * same-key callers wait on the condition variable and receive the same
//    pointer once the compute finishes;
//  * a throwing compute erases its placeholder, wakes the waiters (one of
//    them then computes) and rethrows to its own caller only.
//
// That blocking discipline makes "how many computes ran" a pure function of
// the distinct keys requested, never of thread scheduling, which is what
// lets the caches' miss counters stay exact at any thread count.
//
// Keys compare with operator<, and equal keys always share one entry, so a
// key must determine its value. Entries are never evicted. Values are
// immutable and shared: a handed-out pointer stays valid after clear(). The
// compute is a template parameter, so a hit takes the lock, copies one
// shared_ptr and allocates nothing.

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace hbsp::util {

template <typename Key, typename Value>
class Memo {
 public:
  /// The value for `key`; compute() (returning a Value) runs on first use
  /// only. Concurrent callers for the same key block until it finishes.
  template <typename Compute>
  std::shared_ptr<const Value> get(const Key& key, Compute&& compute) {
    std::unique_lock lock{mutex_};
    auto slot = entries_.end();
    ready_.wait(lock, [&] {
      slot = entries_.find(key);
      return slot == entries_.end() || slot->second != nullptr;
    });
    if (slot != entries_.end()) return slot->second;

    // This caller computes. The placeholder's iterator stays valid while the
    // lock is released: clear() skips in-flight entries and only this
    // caller erases it.
    slot = entries_.emplace(key, nullptr).first;
    lock.unlock();
    std::shared_ptr<const Value> value;
    try {
      value = std::make_shared<Value>(std::forward<Compute>(compute)());
    } catch (...) {
      lock.lock();
      entries_.erase(slot);
      ready_.notify_all();
      throw;
    }
    lock.lock();
    slot->second = value;
    ready_.notify_all();
    return value;
  }

  /// Drops every finished entry; computes in flight finish normally.
  void clear() {
    std::lock_guard lock{mutex_};
    std::erase_if(entries_,
                  [](const auto& entry) { return entry.second != nullptr; });
  }

  /// Entries held, in-flight placeholders included.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<Key, std::shared_ptr<const Value>> entries_;  ///< null: in flight
};

}  // namespace hbsp::util
