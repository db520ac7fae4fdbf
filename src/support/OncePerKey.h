//===- support/OncePerKey.h - Build each keyed value exactly once ---------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe map from a key to a value built on first request. The
/// first caller for a key runs the build; concurrent callers for the same
/// key block until it finishes and then share the value, and callers for
/// other keys never wait on it. The map's mutex guards only the map: the
/// build runs under its entry's own mutex. A build that throws leaves its
/// key unbuilt, so the next caller for that key builds again.
///
/// The entry holds a mutex and a flag rather than a std::once_flag because
/// ThreadSanitizer's pthread_once, which std::call_once calls, leaves a
/// flag whose callable threw marked as running, and the next caller for
/// that key would wait forever.
///
/// Entries live as long as the map, and none is ever evicted, so a returned
/// reference stays valid for the map's lifetime. The checkpoint-library
/// pool (ckpt/LibraryPool.h) and the microbenchmark text memo
/// (workloads/TextGen.h) are built on it.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SUPPORT_ONCEPERKEY_H
#define BOR_SUPPORT_ONCEPERKEY_H

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace bor {

template <typename KeyT, typename ValueT, typename HashT = std::hash<KeyT>>
class OncePerKey {
public:
  OncePerKey() = default;
  OncePerKey(const OncePerKey &) = delete;
  OncePerKey &operator=(const OncePerKey &) = delete;

  /// Returns the value for \p Key, calling \p Build() (which returns a
  /// ValueT) to make it if no earlier call has. \p Build runs only in the
  /// call that builds the value.
  template <typename BuildFn>
  const ValueT &getOrBuild(const KeyT &Key, BuildFn &&Build) {
    Entry &E = entryFor(Key);
    std::lock_guard<std::mutex> Lock(E.BuildMutex);
    if (!E.Built) {
      E.Value = Build();
      E.Built = true;
    }
    return E.Value;
  }

  /// Keys requested so far, built or not.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Entries.size();
  }

private:
  struct Entry {
    std::mutex BuildMutex; ///< guards Built and the build
    bool Built = false;
    ValueT Value;
  };

  /// The entry for \p Key, created empty on first request.
  Entry &entryFor(const KeyT &Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::unique_ptr<Entry> &Slot = Entries[Key];
    if (!Slot)
      Slot = std::make_unique<Entry>();
    return *Slot;
  }

  mutable std::mutex Mutex; ///< guards Entries only
  std::unordered_map<KeyT, std::unique_ptr<Entry>, HashT> Entries;
};

} // namespace bor

#endif // BOR_SUPPORT_ONCEPERKEY_H
