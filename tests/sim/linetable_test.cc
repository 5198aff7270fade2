// Tests for the open-addressed line table: a seeded differential
// against std::unordered_map across several growths, on keys that
// collide in their low bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "sim/linetable.h"

using namespace splash;
using namespace splash::sim;

namespace {

struct Value
{
    std::uint64_t a = 0;
    std::uint32_t b = 0;
};

/** Keys whose low 16 bits are all zero (a 64 KB stride), mixed with
 *  dense line addresses, drawn from a pool several times larger than
 *  the table's initial capacity. */
Addr
keyAt(std::uint64_t x)
{
    const std::uint64_t k = (x >> 17) % 12000;
    return k % 2 ? Addr(0x10000000) + (k << 16) : Addr(0x200000) + k * 64;
}

} // namespace

TEST(LineTable, MatchesUnorderedMapAcrossGrowths)
{
    for (std::uint64_t seed : {1ull, 42ull, 9001ull}) {
        LineTable<Value> table;
        std::unordered_map<Addr, Value> ref;
        std::uint64_t x = seed;
        for (int i = 0; i < 60000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const Addr key = keyAt(x);
            if ((x >> 5) % 3 == 0) {
                // Lookup only: present and absent keys alike.
                const Value* got = table.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(got != nullptr, it != ref.end()) << key;
                if (got) {
                    EXPECT_EQ(got->a, it->second.a);
                    EXPECT_EQ(got->b, it->second.b);
                }
                continue;
            }
            // Insert on access: a new key starts value-initialized.
            const bool fresh = ref.find(key) == ref.end();
            Value& v = table[key];
            Value& r = ref[key];
            if (fresh) {
                EXPECT_EQ(v.a, 0u);
                EXPECT_EQ(v.b, 0u);
            }
            v.a += x;
            r.a += x;
            ++v.b;
            ++r.b;
            ASSERT_EQ(table.size(), ref.size());
        }
        ASSERT_GT(ref.size(), 8000u);  // several growths past 1024 slots

        std::unordered_map<Addr, int> visits;
        table.forEach([&](Addr key, Value& v) {
            ++visits[key];
            auto it = ref.find(key);
            ASSERT_NE(it, ref.end()) << key;
            EXPECT_EQ(v.a, it->second.a);
            EXPECT_EQ(v.b, it->second.b);
        });
        EXPECT_EQ(visits.size(), ref.size());
        for (const auto& [key, n] : visits)
            EXPECT_EQ(n, 1) << key;
    }
}

TEST(LineTable, ConstFindSeesInsertedValues)
{
    LineTable<std::uint64_t> table;
    table[0] = 7;  // address 0 is an ordinary key
    table[64] = 9;
    const LineTable<std::uint64_t>& c = table;
    ASSERT_NE(c.find(0), nullptr);
    EXPECT_EQ(*c.find(0), 7u);
    EXPECT_EQ(*c.find(64), 9u);
    EXPECT_EQ(c.find(128), nullptr);
    EXPECT_EQ(c.size(), 2u);
}
