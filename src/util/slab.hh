/**
 * @file
 * SlabArena<T>: a fixed-size slab allocator with freelist recycling
 * and generation-checked handles, built for per-flow state at
 * million-flow scale (see DESIGN.md §15).
 *
 * Why not unique_ptr-per-object:
 *  - one heap allocation per flow scatters contexts across the heap
 *    (every touch is a cache miss at 10^5+ flows);
 *  - allocator metadata adds ~32 B/object;
 *  - churn (open/close storms) pounds malloc instead of popping a
 *    freelist.
 *
 * Objects are constructed in place and never move, so raw
 * pointers/references handed out by get() stay valid until free().
 * The first slab has kFirstSlabObjects slots and each later one
 * doubles, up to kSlabObjects, so a small world pays for a few slots,
 * not a thousand. A Handle is {slot index, generation}; the
 * generation bumps on every free, so a stale handle held across a
 * recycle resolves to null instead of aliasing the new occupant
 * (use-after-free becomes a checkable condition, which the NIC and
 * TCP layers rely on under connection churn).
 *
 * Not thread-safe by design: one arena per simulated world, like
 * net::PacketPool.
 *
 * Under AddressSanitizer a free slot's storage is poisoned, so a stale
 * raw pointer that reads a destroyed object is reported like a heap
 * use-after-free instead of silently reading the dead bytes.
 */

#ifndef ANIC_UTIL_SLAB_HH
#define ANIC_UTIL_SLAB_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/panic.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ANIC_SLAB_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define ANIC_SLAB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define ANIC_SLAB_POISON(p, n) ((void)(p), (void)(n))
#define ANIC_SLAB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace anic::util {

/**
 * Generation-checked reference to a slab slot. Trivially copyable
 * (8 bytes) so it can live in flat hash tables by value. A
 * default-constructed handle is null.
 */
struct SlabHandle
{
    uint32_t index = kNullIndex;
    uint32_t gen = 0;

    static constexpr uint32_t kNullIndex = 0xffffffffu;

    explicit operator bool() const { return index != kNullIndex; }
    bool operator==(const SlabHandle &o) const
    {
        return index == o.index && gen == o.gen;
    }
    bool operator!=(const SlabHandle &o) const { return !(*this == o); }
};

template <typename T>
class SlabArena
{
  public:
    using Handle = SlabHandle;

    /** Slots in the first slab; each later slab doubles. */
    static constexpr size_t kFirstSlabObjects = 16;
    /** Largest slab: large enough to amortize the slab allocation,
     *  small enough that a mostly-idle arena stays compact. */
    static constexpr size_t kSlabObjects = 1024;

    SlabArena() = default;
    SlabArena(const SlabArena &) = delete;
    SlabArena &operator=(const SlabArena &) = delete;

    ~SlabArena()
    {
        // Destroy stragglers in slot order (owners normally free
        // every object; worlds tear down whole stacks at once).
        for (size_t i = 0; i < slots_.size(); i++) {
            if (slots_[i]->live)
                destroySlot(*slots_[i]);
            ANIC_SLAB_UNPOISON(slots_[i]->storage, sizeof(T));
        }
    }

    /** Constructs a T in a recycled (or fresh) slot. */
    template <typename... Args>
    Handle
    alloc(Args &&...args)
    {
        uint32_t idx;
        if (freeHead_ != SlabHandle::kNullIndex) {
            idx = freeHead_;
            freeHead_ = slots_[idx]->nextFree;
        } else {
            idx = static_cast<uint32_t>(slots_.size());
            grow();
        }
        Slot &s = *slots_[idx];
        ANIC_SLAB_UNPOISON(s.storage, sizeof(T));
        new (s.storage) T(std::forward<Args>(args)...);
        s.live = true;
        live_++;
        return Handle{idx, s.gen};
    }

    /** Destroys the object and recycles its slot; the handle (and any
     *  copy of it) goes stale. */
    void
    free(Handle h)
    {
        Slot &s = slotFor(h);
        ANIC_ASSERT(s.live && s.gen == h.gen, "slab free of stale handle");
        destroySlot(s);
        s.nextFree = freeHead_;
        freeHead_ = h.index;
    }

    /** Live object for @p h, or null if the handle is stale/null. */
    T *
    get(Handle h)
    {
        if (h.index >= slots_.size())
            return nullptr;
        Slot &s = *slots_[h.index];
        if (!s.live || s.gen != h.gen)
            return nullptr;
        return std::launder(reinterpret_cast<T *>(s.storage));
    }

    const T *
    get(Handle h) const
    {
        return const_cast<SlabArena *>(this)->get(h);
    }

    /** Checked access: panics on a stale handle. */
    T &
    at(Handle h)
    {
        T *p = get(h);
        ANIC_ASSERT(p != nullptr, "slab access through stale handle");
        return *p;
    }

    size_t liveCount() const { return live_; }
    size_t capacity() const { return slots_.size(); }

    /** Bytes the arena holds on the heap (slab payload + slot
     *  headers). */
    size_t
    heapBytes() const
    {
        return slots_.size() * sizeof(Slot) +
               slots_.capacity() * sizeof(Slot *);
    }

    /** Visits every live object (teardown sweeps, debug stats). */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (size_t i = 0; i < slots_.size(); i++) {
            if (slots_[i]->live)
                fn(*std::launder(reinterpret_cast<T *>(slots_[i]->storage)));
        }
    }

  private:
    struct Slot
    {
        alignas(T) unsigned char storage[sizeof(T)];
        uint32_t gen = 0;
        uint32_t nextFree = SlabHandle::kNullIndex;
        bool live = false;
    };

    Slot &
    slotFor(Handle h)
    {
        ANIC_ASSERT(h.index < slots_.size(), "slab handle out of range");
        return *slots_[h.index];
    }

    void
    destroySlot(Slot &s)
    {
        std::launder(reinterpret_cast<T *>(s.storage))->~T();
        ANIC_SLAB_POISON(s.storage, sizeof(T));
        s.live = false;
        s.gen++;
        live_--;
    }

    void
    grow()
    {
        // One contiguous slab, twice the previous one up to
        // kSlabObjects (slabs of 16, 32, ... sum to 16 less than the
        // next); the index table points into it so slot addresses are
        // stable forever. Slots are default-initialised: storage stays
        // raw until alloc() constructs into it.
        size_t n = std::min(slots_.size() + kFirstSlabObjects, kSlabObjects);
        slabs_.push_back(std::make_unique_for_overwrite<Slot[]>(n));
        Slot *slab = slabs_.back().get();
        // The index table grows geometrically through push_back; a
        // reserve(size + n) here would copy it whole on every slab,
        // quadratic in the slot count.
        size_t base = slots_.size();
        for (size_t i = 0; i < n; i++) {
            slots_.push_back(&slab[i]);
            ANIC_SLAB_POISON(slab[i].storage, sizeof(T));
        }
        // Slot base+0 goes to the caller; the rest chain onto the
        // freelist so the next allocs pop in ascending slot order.
        for (size_t i = n - 1; i >= 1; i--) {
            slab[i].nextFree = freeHead_;
            freeHead_ = static_cast<uint32_t>(base + i);
        }
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<Slot *> slots_; ///< flat index -> slot
    uint32_t freeHead_ = SlabHandle::kNullIndex;
    size_t live_ = 0;
};

} // namespace anic::util

#endif // ANIC_UTIL_SLAB_HH
