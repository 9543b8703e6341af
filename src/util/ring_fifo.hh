/**
 * @file
 * RingFifo<T>: a growable circular FIFO for per-flow queues.
 *
 * libstdc++'s std::deque allocates a ~576 B map and first chunk as
 * soon as it is constructed, and a flow owns several queues (TCP
 * receive queue, kTLS plaintext queue, tx message map, storage send
 * queue) that are empty most of their life. A RingFifo allocates
 * nothing until its first push, grows by doubling, and pops in place:
 * an element is destroyed when it is popped, and the survivors never
 * move except when the buffer grows. A core's work queue is one too
 * (of arena handles; push_front() serves urgent items), because a
 * deque allocates a chunk every few pushes even at a steady depth.
 *
 * Growth moves every element, so a pointer or reference to an element
 * is valid only until the next push (pop invalidates only the popped
 * element). Callers must not hold one across a push.
 */

#ifndef ANIC_UTIL_RING_FIFO_HH
#define ANIC_UTIL_RING_FIFO_HH

#include <cstddef>
#include <new>
#include <utility>

#include "util/panic.hh"

namespace anic::util {

template <typename T>
class RingFifo
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned elements need the aligned operator new");

  public:
    RingFifo() = default;
    RingFifo(const RingFifo &) = delete;
    RingFifo &operator=(const RingFifo &) = delete;

    ~RingFifo()
    {
        clear();
        ::operator delete(buf_);
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** The @p i-th element from the front. */
    T &
    operator[](size_t i)
    {
        ANIC_ASSERT(i < size_);
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    const T &
    operator[](size_t i) const
    {
        return const_cast<RingFifo *>(this)->operator[](i);
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow();
        new (&buf_[(head_ + size_) & (cap_ - 1)]) T(std::move(v));
        size_++;
    }

    /** Inserts ahead of every queued element. */
    void
    push_front(T v)
    {
        if (size_ == cap_)
            grow();
        head_ = (head_ - 1) & (cap_ - 1);
        new (&buf_[head_]) T(std::move(v));
        size_++;
    }

    /** Destroys the front element. */
    void
    pop_front()
    {
        ANIC_ASSERT(size_ > 0, "pop_front() on empty ring");
        buf_[head_].~T();
        head_ = (head_ + 1) & (cap_ - 1);
        size_--;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
    }

    /** Heap bytes backing the ring (zero before the first push). */
    size_t heapBytes() const { return cap_ * sizeof(T); }

  private:
    void
    grow()
    {
        // From one slot: most per-flow queues never hold more than
        // one or two elements at a time.
        size_t cap = cap_ == 0 ? 1 : 2 * cap_;
        T *buf = static_cast<T *>(::operator new(cap * sizeof(T)));
        for (size_t i = 0; i < size_; i++) {
            T &e = (*this)[i];
            new (&buf[i]) T(std::move(e));
            e.~T();
        }
        ::operator delete(buf_);
        buf_ = buf;
        cap_ = cap;
        head_ = 0;
    }

    T *buf_ = nullptr; ///< cap_ slots; live ones are [head_, head_+size_)
    size_t cap_ = 0;   ///< zero or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace anic::util

#endif // ANIC_UTIL_RING_FIFO_HH
