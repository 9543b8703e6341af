/**
 * @file
 * Unit tests for util: byte codecs, hex, deterministic fill (known
 * answers, flipped bytes, wide kernel against portable), RNG,
 * slab arena handles and growth (including the bytes its index
 * table allocates), the ring FIFO, and the flat hash map
 * (including a differential check against std::unordered_map and a
 * regression for sequential-id clustering).
 */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "support/alloc_counter.hh"
#include "util/bytes.hh"
#include "util/flat_map.hh"
#include "util/panic.hh"
#include "util/rand.hh"
#include "util/ring_fifo.hh"
#include "util/slab.hh"

namespace anic {
namespace {

TEST(Bytes, BigEndianRoundTrip)
{
    uint8_t buf[8];
    putBe16(buf, 0xbeef);
    EXPECT_EQ(getBe16(buf), 0xbeef);
    putBe32(buf, 0xdeadbeefu);
    EXPECT_EQ(getBe32(buf), 0xdeadbeefu);
    putBe64(buf, 0x0123456789abcdefull);
    EXPECT_EQ(getBe64(buf), 0x0123456789abcdefull);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(buf[7], 0xef);
}

TEST(Bytes, LittleEndianRoundTrip)
{
    uint8_t buf[4];
    putLe32(buf, 0xdeadbeefu);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[3], 0xde);
    EXPECT_EQ(getLe32(buf), 0xdeadbeefu);
    putLe16(buf, 0x1234);
    EXPECT_EQ(getLe16(buf), 0x1234);
}

TEST(Bytes, VariableWidthBigEndian)
{
    uint8_t buf[3];
    putBe(buf, 0x123456, 3);
    EXPECT_EQ(buf[0], 0x12);
    EXPECT_EQ(buf[1], 0x34);
    EXPECT_EQ(buf[2], 0x56);
    EXPECT_EQ(getBe(buf, 3), 0x123456u);
}

TEST(Bytes, HexRoundTrip)
{
    Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
    EXPECT_EQ(toHex(data), "deadbeef0001");
    EXPECT_EQ(fromHex("deadbeef0001"), data);
    EXPECT_EQ(fromHex("DEADBEEF0001"), data);
    EXPECT_TRUE(fromHex("").empty());
}

TEST(Bytes, DeterministicFillIsOffsetStable)
{
    // A sub-range generated at its own offset must match the same
    // range within a larger fill; this property underlies zero-copy
    // placement verification.
    Bytes whole(4096);
    fillDeterministic(whole, 42, 0);
    Bytes part(100);
    fillDeterministic(part, 42, 1000);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin() + 1000));
    EXPECT_TRUE(checkDeterministic(part, 42, 1000));
    EXPECT_FALSE(checkDeterministic(part, 42, 1001));
    EXPECT_FALSE(checkDeterministic(part, 43, 1000));
}

TEST(Bytes, DeterministicFillDiffersAcrossSeeds)
{
    Bytes a(256);
    Bytes b(256);
    fillDeterministic(a, 1, 0);
    fillDeterministic(b, 2, 0);
    EXPECT_NE(a, b);
}

/** FNV-1a over fillDeterministic(seed, offset) at every length of the
 *  known-answer grid, each length folded in before its bytes. */
uint64_t
fillDigest(uint64_t seed, uint64_t offset)
{
    static const size_t kLens[] = {0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1448,
                                   4099};
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t len : kLens) {
        Bytes b(len);
        fillDeterministic(b, seed, offset);
        EXPECT_TRUE(checkDeterministic(b, seed, offset))
            << "seed " << seed << " offset " << offset << " len " << len;
        h = (h ^ len) * 0x100000001b3ull;
        for (uint8_t c : b)
            h = (h ^ c) * 0x100000001b3ull;
    }
    return h;
}

TEST(Bytes, DeterministicFillKnownAnswers)
{
    // Generated from the byte-at-a-time reference generator. Every
    // simulated result depends on these bytes, so a kernel change must
    // reproduce them exactly.
    static const uint64_t kSeeds[] = {0, 1, 42, (1ull << 63) + 5};
    static const uint64_t kOffsets[] = {0, 1, 7, 8, 9, 1000, (1ull << 40) + 3};
    static const uint64_t kDigest[4][7] = {
        {0x057e5d5d8887daaeull, 0x0a1fd85e314c5f8eull, 0x688ef30d6c3ad605ull,
         0x15d1a9c9ea8a6edaull, 0xfe71bca087e1e1d4ull, 0x13d599be5f355f13ull,
         0x8345c4b8267ab066ull},
        {0x2adf8098004830b2ull, 0x0c87f0602727b1d9ull, 0xcca5eeb7e3b4b9abull,
         0x51de96f75f37fd16ull, 0x40d8db7c3564077full, 0x805b0bde4b57211cull,
         0x6d49b19bb242541cull},
        {0xd131594a81d9a7e7ull, 0x25bd70afae95a3fdull, 0x2b589c5247fa4400ull,
         0x263736f48b02c33eull, 0x691f9bf07fd7195dull, 0x2abb7a36800d89d9ull,
         0x3d92af7be990df70ull},
        {0x3a9a5885a8acc191ull, 0xcb250b534cff39b2ull, 0xc032da8429b9d1c3ull,
         0xd61cfd813ce65f5aull, 0x9d3d1eace26270e3ull, 0x2aa1032eb712c08aull,
         0xd5c87f727af5aeefull},
    };
    for (size_t s = 0; s < 4; s++) {
        for (size_t o = 0; o < 7; o++) {
            EXPECT_EQ(fillDigest(kSeeds[s], kOffsets[o]), kDigest[s][o])
                << "seed " << kSeeds[s] << " offset " << kOffsets[o];
        }
    }
}

TEST(Bytes, DeterministicCheckRejectsEveryFlippedByte)
{
    // An odd offset gives the span a head, whole words and a tail.
    const uint64_t offset = 1001;
    Bytes data(200);
    fillDeterministic(data, 9, offset);
    ASSERT_TRUE(checkDeterministic(data, 9, offset));
    for (size_t i = 0; i < data.size(); i++) {
        data[i] ^= 0x10;
        EXPECT_FALSE(checkDeterministic(data, 9, offset)) << "byte " << i;
        data[i] ^= 0x10;
    }
    EXPECT_TRUE(checkDeterministic(data, 9, offset));
}

TEST(Bytes, WideKernelMatchesPortable)
{
    auto kernels = util::payloadKernels();
    if (kernels.size() < 2)
        GTEST_SKIP() << "no wide payload kernel for this build and CPU";
    ASSERT_STREQ(kernels.front().name, "portable");
    Rng r(77);
    for (int iter = 0; iter < 200; iter++) {
        uint64_t seed = r.next();
        uint64_t block = r.next();
        size_t n = r.below(300);
        // One byte of offset keeps the word stores unaligned.
        Bytes want(8 * n + 1);
        kernels.front().fillWords(want.data() + 1, n, seed, block);
        for (const util::PayloadKernel &k : kernels.subspan(1)) {
            Bytes got(8 * n + 1);
            k.fillWords(got.data() + 1, n, seed, block);
            EXPECT_EQ(got, want) << k.name << " n " << n;
            EXPECT_EQ(k.diffWords(want.data() + 1, n, seed, block), 0u)
                << k.name;
            if (n == 0)
                continue;
            size_t at = 1 + r.below(8 * n);
            got[at] ^= 0x01;
            EXPECT_EQ(k.diffWords(got.data() + 1, n, seed, block),
                      kernels.front().diffWords(got.data() + 1, n, seed,
                                                block))
                << k.name << " flipped byte " << at;
        }
    }
}

TEST(Rng, DeterministicAcrossReseeds)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
    a.reseed(8);
    b.reseed(7);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(123);
    for (int i = 0; i < 10000; i++) {
        uint64_t v = r.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(11);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        hits += r.chance(0.03) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.03, 0.005);
}

TEST(Strprintf, Formats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strprintf("%s", ""), "");
}

// ------------------------------------------------------------ slab arena

/** Counts constructions/destructions to observe slot lifecycle. */
struct Tracked
{
    static int liveInstances;
    int value;

    explicit Tracked(int v) : value(v) { liveInstances++; }
    Tracked(const Tracked &o) : value(o.value) { liveInstances++; }
    ~Tracked() { liveInstances--; }
};

int Tracked::liveInstances = 0;

TEST(SlabArena, AllocGetFreeLifecycle)
{
    Tracked::liveInstances = 0;
    {
        util::SlabArena<Tracked> arena;
        util::SlabHandle a = arena.alloc(1);
        util::SlabHandle b = arena.alloc(2);
        EXPECT_EQ(arena.liveCount(), 2u);
        EXPECT_EQ(Tracked::liveInstances, 2);
        ASSERT_NE(arena.get(a), nullptr);
        EXPECT_EQ(arena.get(a)->value, 1);
        EXPECT_EQ(arena.at(b).value, 2);

        arena.free(a);
        EXPECT_EQ(arena.liveCount(), 1u);
        EXPECT_EQ(Tracked::liveInstances, 1);
        EXPECT_EQ(arena.get(a), nullptr); // stale handle resolves null
        arena.free(b);
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

TEST(SlabArena, GenerationGuardsRecycledSlot)
{
    util::SlabArena<Tracked> arena;
    util::SlabHandle a = arena.alloc(1);
    arena.free(a);
    // The freelist hands the same slot back; the stale handle must not
    // alias the new occupant.
    util::SlabHandle b = arena.alloc(2);
    EXPECT_EQ(b.index, a.index);
    EXPECT_NE(b.gen, a.gen);
    EXPECT_EQ(arena.get(a), nullptr);
    ASSERT_NE(arena.get(b), nullptr);
    EXPECT_EQ(arena.get(b)->value, 2);
    arena.free(b);
}

TEST(SlabArena, AddressesStableAcrossGrowth)
{
    util::SlabArena<Tracked> arena;
    std::vector<util::SlabHandle> handles;
    std::vector<Tracked *> addrs;
    // Cross every doubling boundary (16, 32, ... 1024 slots) and two
    // full-size slabs after it, so growth happens mid-test.
    const int n = 3 * util::SlabArena<Tracked>::kSlabObjects + 7;
    std::vector<size_t> capacities;
    for (int i = 0; i < n; i++) {
        handles.push_back(arena.alloc(i));
        addrs.push_back(arena.get(handles.back()));
        EXPECT_EQ(handles.back().index, static_cast<uint32_t>(i));
        if (capacities.empty() || capacities.back() != arena.capacity())
            capacities.push_back(arena.capacity());
    }
    EXPECT_EQ(capacities, (std::vector<size_t>{16, 48, 112, 240, 496, 1008,
                                               2032, 3056, 4080}));
    for (int i = 0; i < n; i++) {
        EXPECT_EQ(arena.get(handles[i]), addrs[i]);
        EXPECT_EQ(addrs[i]->value, i);
    }
    EXPECT_GT(arena.heapBytes(), n * sizeof(Tracked));
    for (auto h : handles)
        arena.free(h);
    EXPECT_EQ(arena.liveCount(), 0u);
}

TEST(SlabArena, IndexTableGrowsGeometrically)
{
    // 2x10^5 slots, the NIC's flow contexts at 10^5 flows. Besides the
    // slabs and the final table (both in heapBytes()), growth may
    // allocate only the table's earlier geometric steps; reserving
    // each slab's slots would copy the whole table ~200 times.
    util::SlabArena<uint64_t> arena;
    testing::AllocCounter::start();
    for (uint64_t i = 0; i < 200000; i++)
        arena.alloc(i);
    testing::AllocCounter::stop();
    uint64_t table = arena.capacity() * sizeof(void *);
    EXPECT_LE(testing::AllocCounter::bytes, arena.heapBytes() + 2 * table);
}

TEST(SlabArena, DestructorDestroysStragglers)
{
    Tracked::liveInstances = 0;
    {
        util::SlabArena<Tracked> arena;
        arena.alloc(1);
        arena.alloc(2);
        arena.alloc(3);
        // Owner "forgets" to free: the arena destructor must run the
        // destructors (worlds tear down whole stacks at once).
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

TEST(SlabArena, ForEachVisitsOnlyLive)
{
    util::SlabArena<Tracked> arena;
    util::SlabHandle a = arena.alloc(1);
    util::SlabHandle b = arena.alloc(2);
    util::SlabHandle c = arena.alloc(3);
    arena.free(b);
    int sum = 0;
    arena.forEach([&](Tracked &t) { sum += t.value; });
    EXPECT_EQ(sum, 4);
    arena.free(a);
    arena.free(c);
}

// ------------------------------------------------------------- ring fifo

TEST(RingFifo, KeepsOrderAcrossWrapAndGrowth)
{
    util::RingFifo<int> q;
    std::deque<int> ref;
    int next = 0;
    // Interleave pushes and pops so the head wraps inside every
    // capacity before the ring grows past it.
    for (int round = 0; round < 200; round++) {
        for (int i = 0; i < 3 + round % 5; i++) {
            q.push_back(next);
            ref.push_back(next++);
        }
        for (int i = 0; i < 2 + round % 3 && !ref.empty(); i++) {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.back(), ref.back());
        for (size_t i = 0; i < ref.size(); i++)
            ASSERT_EQ(q[i], ref[i]);
    }
    EXPECT_GT(q.size(), 64u); // grew several times
}

TEST(RingFifo, PushFrontKeepsOrderAcrossWrapAndGrowth)
{
    util::RingFifo<int> q;
    std::deque<int> ref;
    int next = 0;
    // Mixed ends: push_front steps the head back across index 0 and
    // must survive a grow that re-bases the ring.
    for (int round = 0; round < 200; round++) {
        for (int i = 0; i < 3 + round % 5; i++) {
            if ((next + round) % 3 == 0) {
                q.push_front(next);
                ref.push_front(next++);
            } else {
                q.push_back(next);
                ref.push_back(next++);
            }
        }
        for (int i = 0; i < 2 + round % 3 && !ref.empty(); i++) {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
        for (size_t i = 0; i < ref.size(); i++)
            ASSERT_EQ(q[i], ref[i]);
    }
    EXPECT_GT(q.size(), 64u);
}

TEST(RingFifo, AllocatesNothingBeforeTheFirstPush)
{
    util::RingFifo<Bytes> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heapBytes(), 0u);
    q.push_back(Bytes(3, 1));
    EXPECT_GT(q.heapBytes(), 0u);
    q.pop_front();
    EXPECT_TRUE(q.empty());
}

TEST(RingFifo, DestroysElementsAtPop)
{
    Tracked::liveInstances = 0;
    {
        util::RingFifo<Tracked> q;
        for (int i = 0; i < 10; i++)
            q.push_back(Tracked(i)); // grows 1, 2, 4, 8, 16
        EXPECT_EQ(Tracked::liveInstances, 10);
        q.pop_front();
        q.pop_front();
        EXPECT_EQ(Tracked::liveInstances, 8);
        EXPECT_EQ(q.front().value, 2);
        // The destructor destroys the rest.
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

// -------------------------------------------------------------- flat map

TEST(FlatMap, BasicInsertFindErase)
{
    util::FlatMap<uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));

    m.emplace(7, 70);
    m.emplace(8, 80);
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_TRUE(m.contains(8));
    EXPECT_FALSE(m.contains(9));

    m.put(7, 71); // overwrite
    EXPECT_EQ(*m.find(7), 71);
    m.put(9, 90); // insert through put
    EXPECT_EQ(m.size(), 3u);

    EXPECT_TRUE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.size(), 2u);

    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, ForEachVisitsEveryEntry)
{
    util::FlatMap<uint64_t, uint64_t> m;
    uint64_t want = 0;
    for (uint64_t k = 0; k < 100; k++) {
        m.emplace(k, k * 3);
        want += k * 3;
    }
    uint64_t sum = 0;
    size_t count = 0;
    m.forEach([&](const uint64_t &k, uint64_t &v) {
        EXPECT_EQ(v, k * 3);
        sum += v;
        count++;
    });
    EXPECT_EQ(count, 100u);
    EXPECT_EQ(sum, want);
}

TEST(FlatMap, MoveTransfersOwnership)
{
    util::FlatMap<uint64_t, int> a;
    a.emplace(1, 10);
    a.emplace(2, 20);
    util::FlatMap<uint64_t, int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(*b.find(1), 10);

    util::FlatMap<uint64_t, int> c;
    c.emplace(9, 99);
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.find(9), nullptr);
    EXPECT_EQ(*c.find(2), 20);
}

/** Degenerate hash: collapses keys into few home slots to exercise
 *  robin-hood displacement and backward-shift deletion directly. */
struct CoarseHash
{
    size_t operator()(const uint64_t &k) const { return k / 16; }
};

TEST(FlatMap, CollidingKeysProbeAndBackwardShift)
{
    util::FlatMap<uint64_t, uint64_t, CoarseHash> m;
    // 48 keys over 3 home slots: long probe chains, heavy displacement.
    for (uint64_t k = 0; k < 48; k++)
        m.emplace(k, k + 1000);
    for (uint64_t k = 0; k < 48; k++) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), k + 1000);
    }
    // Erase from the middle of chains; survivors must stay findable
    // (backward shift repairs the chain instead of tombstoning).
    for (uint64_t k = 0; k < 48; k += 3)
        EXPECT_TRUE(m.erase(k));
    for (uint64_t k = 0; k < 48; k++) {
        if (k % 3 == 0) {
            EXPECT_EQ(m.find(k), nullptr) << k;
        } else {
            ASSERT_NE(m.find(k), nullptr) << k;
            EXPECT_EQ(*m.find(k), k + 1000);
        }
    }
}

TEST(FlatMap, ReserveAvoidsGrowthAndKeepsEntries)
{
    util::FlatMap<uint64_t, uint64_t> m;
    m.reserve(1000);
    size_t bytes = m.heapBytes();
    for (uint64_t k = 0; k < 1000; k++)
        m.emplace(k, k);
    EXPECT_EQ(m.heapBytes(), bytes); // no rehash happened
    EXPECT_EQ(m.size(), 1000u);
    EXPECT_EQ(*m.find(999), 999u);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap)
{
    // Random insert/overwrite/erase/lookup mix, checked against the
    // reference container after every phase. Keys are drawn from a
    // small space so operations collide with earlier ones often.
    util::FlatMap<uint64_t, uint64_t> m;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(2024);
    for (int op = 0; op < 60000; op++) {
        uint64_t k = rng.below(4096);
        switch (rng.below(4)) {
          case 0:
          case 1: { // put (insert or overwrite)
            uint64_t v = rng.next();
            m.put(k, v);
            ref[k] = v;
            break;
          }
          case 2: { // erase
            bool a = m.erase(k);
            bool b = ref.erase(k) > 0;
            ASSERT_EQ(a, b);
            break;
          }
          case 3: { // lookup
            uint64_t *v = m.find(k);
            auto it = ref.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                ASSERT_EQ(*v, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    // Full sweep at the end: every surviving entry matches.
    size_t visited = 0;
    m.forEach([&](const uint64_t &k, uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(v, it->second);
        visited++;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, SequentialIdChurnStaysShallow)
{
    // Regression: context ids are sequential, and libstdc++'s
    // std::hash<uint64_t> is the identity. Before FlatHash, a sliding
    // window of sequential ids formed one contiguous run of occupied
    // slots, and every insert of an older "hot" id whose home slot
    // fell inside the run shifted the whole suffix, ratcheting probe
    // distances past the uint8 cap (panic at ~255). Replays that
    // pattern at the bench's scale: a 20000-entry resident window
    // sliding over 200000 sequential ids, with scattered hot survivors
    // re-inserted behind the window.
    util::FlatMap<uint64_t, uint64_t> m;
    std::vector<uint64_t> resident;
    Rng rng(7);
    uint64_t next = 0;
    const size_t kWindow = 20000;
    while (next < 200000) {
        uint64_t id = next++;
        m.put(id, id);
        resident.push_back(id);
        if (resident.size() > kWindow) {
            // Evict a mostly-oldest victim, but keep ~1% as "hot"
            // survivors and periodically re-insert an old id (a hot
            // flow fetched back into the cache).
            size_t victim = rng.below(100) == 0
                                ? rng.below(resident.size())
                                : 0;
            uint64_t ev = resident[victim];
            resident.erase(resident.begin() +
                           static_cast<ptrdiff_t>(victim));
            EXPECT_TRUE(m.erase(ev));
            if (rng.below(50) == 0 && ev > 0) {
                uint64_t hot = rng.below(ev);
                if (m.find(hot) == nullptr) {
                    m.put(hot, hot);
                    resident.push_back(hot);
                }
            }
        }
    }
    EXPECT_EQ(m.size(), resident.size());
    for (uint64_t id : resident)
        ASSERT_NE(m.find(id), nullptr) << id;
}

} // namespace
} // namespace anic
