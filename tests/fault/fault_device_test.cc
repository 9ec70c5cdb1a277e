// FaultInjectingDevice unit tests: the deterministic fault stream, each
// FaultKind's observable effect, and the offline state machine.

#include "fault/fault_injecting_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "storage/mem_device.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

std::vector<uint8_t> Fill(uint8_t b) { return std::vector<uint8_t>(kPage, b); }

TEST(FaultDeviceTest, HealthyPlanPassesEverythingThrough) {
  MemDevice mem(16, kPage);
  FaultInjectingDevice dev(&mem, FaultPlan::Healthy());
  auto in = Fill(0xAB);
  std::vector<uint8_t> out(kPage);
  EXPECT_TRUE(dev.Write(3, 1, in, 0).ok());
  EXPECT_TRUE(dev.Read(3, 1, out, 0).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.fault_stats().ops, 2);
  EXPECT_FALSE(dev.offline());
}

TEST(FaultDeviceTest, ScriptedTransientErrorFailsExactlyThatOp) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTransientError;
  FaultInjectingDevice dev(&mem, plan);
  auto in = Fill(0x11);
  std::vector<uint8_t> out(kPage);
  EXPECT_TRUE(dev.Write(0, 1, in, 0).ok());           // op 0
  const IoResult r = dev.Read(0, 1, out, 0);          // op 1: injected
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status.IsIoError());
  EXPECT_TRUE(dev.Read(0, 1, out, 0).ok());           // op 2: healed
  EXPECT_EQ(in, out);                                 // data was never damaged
  EXPECT_EQ(dev.fault_stats().transient_errors, 1);
}

TEST(FaultDeviceTest, BitFlipCorruptsTheReadNotTheMedium) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kBitFlip;
  FaultInjectingDevice dev(&mem, plan);
  auto in = Fill(0x5C);
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(dev.Write(2, 1, in, 0).ok());
  ASSERT_TRUE(dev.Read(2, 1, out, 0).ok());  // reports success...
  EXPECT_NE(in, out);                        // ...but one bit lies
  int diff_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    diff_bits += __builtin_popcount(in[i] ^ out[i]);
  }
  EXPECT_EQ(diff_bits, 1);
  // The medium is intact: a re-read returns clean data (latent corruption
  // is transient at the interface unless the flash cells themselves died).
  ASSERT_TRUE(dev.Read(2, 1, out, 0).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.fault_stats().bit_flips, 1);
}

TEST(FaultDeviceTest, TornSinglePageWriteLandsHalfAndReportsSuccess) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;
  FaultInjectingDevice dev(&mem, plan);
  auto old_content = Fill(0xAA);
  auto new_content = Fill(0xBB);
  ASSERT_TRUE(dev.Write(5, 1, old_content, 0).ok());  // op 0
  ASSERT_TRUE(dev.Write(5, 1, new_content, 0).ok());  // op 1: silently torn
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(dev.Read(5, 1, out, 0).ok());
  // First half is new, second half still old: a classic torn page that only
  // a checksum can expose.
  EXPECT_EQ(out[0], 0xBB);
  EXPECT_EQ(out[kPage / 2 - 1], 0xBB);
  EXPECT_EQ(out[kPage / 2], 0xAA);
  EXPECT_EQ(out[kPage - 1], 0xAA);
  EXPECT_EQ(dev.fault_stats().torn_writes, 1);
}

// A single-page tear lands the new first half over the old second half.
// Where the old second half already equals the new one, the medium holds
// exactly what was acked: nothing tore, so nothing is counted.
TEST(FaultDeviceTest, TornWriteThatChangesNoByteIsNotCounted) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;
  FaultInjectingDevice dev(&mem, plan);
  auto old_content = Fill(0xCC);
  auto new_content = Fill(0xCC);
  std::fill(new_content.begin(), new_content.begin() + kPage / 2, 0xBB);
  ASSERT_TRUE(dev.Write(5, 1, old_content, 0).ok());  // op 0
  ASSERT_TRUE(dev.Write(5, 1, new_content, 0).ok());  // op 1: a no-op tear
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(dev.Read(5, 1, out, 0).ok());
  EXPECT_EQ(out, new_content);
  EXPECT_EQ(dev.fault_stats().torn_writes, 0);
}

TEST(FaultDeviceTest, TornWriteThatKeepsOneOldByteIsCounted) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;
  FaultInjectingDevice dev(&mem, plan);
  auto new_content = Fill(0xBB);
  auto old_content = new_content;
  old_content[kPage - 1] = 0xAA;  // the second halves differ in one byte
  ASSERT_TRUE(dev.Write(5, 1, old_content, 0).ok());  // op 0
  ASSERT_TRUE(dev.Write(5, 1, new_content, 0).ok());  // op 1: torn
  std::vector<uint8_t> out(kPage);
  ASSERT_TRUE(dev.Read(5, 1, out, 0).ok());
  EXPECT_EQ(out, old_content);
  EXPECT_EQ(dev.fault_stats().torn_writes, 1);
}

TEST(FaultDeviceTest, LatencySpikeDelaysCompletionOnly) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[0] = FaultKind::kLatencySpike;
  plan.latency_spike = Millis(50);
  FaultInjectingDevice dev(&mem, plan);
  auto in = Fill(0x01);
  const IoResult slow = dev.Write(1, 1, in, Micros(10));
  EXPECT_TRUE(slow.ok());
  EXPECT_EQ(slow.time, Micros(10) + Millis(50));  // MemDevice is zero-time
  const IoResult fast = dev.Write(1, 1, in, Micros(10));
  EXPECT_EQ(fast.time, Micros(10));
}

TEST(FaultDeviceTest, OfflineAtOpKillsTheDevicePermanently) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.offline_at_op = 2;
  FaultInjectingDevice dev(&mem, plan);
  auto in = Fill(0x33);
  std::vector<uint8_t> out(kPage);
  EXPECT_TRUE(dev.Write(0, 1, in, 0).ok());   // op 0
  EXPECT_TRUE(dev.Read(0, 1, out, 0).ok());   // op 1
  const IoResult dead = dev.Read(0, 1, out, 0);  // op 2: the device dies
  EXPECT_TRUE(dead.status.IsUnavailable());
  EXPECT_TRUE(dev.offline());
  // Every later op is rejected without touching the base device.
  EXPECT_TRUE(dev.Write(0, 1, in, 0).status.IsUnavailable());
  EXPECT_TRUE(dev.Read(0, 1, out, 0).status.IsUnavailable());
  EXPECT_EQ(dev.fault_stats().offline_rejects, 2);
  EXPECT_TRUE(dev.fault_stats().offline);
}

TEST(FaultDeviceTest, ForceOfflinePullsThePlugImmediately) {
  MemDevice mem(16, kPage);
  FaultInjectingDevice dev(&mem, FaultPlan::Healthy());
  std::vector<uint8_t> out(kPage);
  dev.ForceOffline();
  EXPECT_TRUE(dev.offline());
  EXPECT_TRUE(dev.Read(0, 1, out, 0).status.IsUnavailable());
}

TEST(FaultDeviceTest, UnchargedOpsBypassInjectionAndTheOpClock) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[0] = FaultKind::kTransientError;
  FaultInjectingDevice dev(&mem, plan);
  auto in = Fill(0x77);
  std::vector<uint8_t> out(kPage);
  // Loader traffic neither faults nor advances the deterministic stream.
  EXPECT_TRUE(dev.Write(4, 1, in, 0, /*charge=*/false).ok());
  EXPECT_TRUE(dev.Read(4, 1, out, 0, /*charge=*/false).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.fault_stats().ops, 0);
  // The first *charged* op is still op 0 and eats the scripted fault.
  EXPECT_FALSE(dev.Read(4, 1, out, 0).ok());
}

TEST(FaultDeviceTest, SameSeedSamePlanSameFaultStream) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_error_rate = 0.2;
  plan.bit_flip_rate = 0.1;
  plan.torn_write_rate = 0.1;
  plan.latency_spike_rate = 0.1;

  auto run = [&plan]() {
    MemDevice mem(64, kPage);
    FaultInjectingDevice dev(&mem, plan);
    std::vector<uint8_t> buf(kPage, 0x42);
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(i % 2 == 0
                             ? dev.Write(static_cast<uint64_t>(i) % 64, 1,
                                         buf, 0)
                                   .ok()
                             : dev.Read(static_cast<uint64_t>(i) % 64, 1,
                                        buf, 0)
                                   .ok());
    }
    const FaultStats s = dev.fault_stats();
    return std::make_tuple(outcomes, s.transient_errors, s.torn_writes,
                           s.bit_flips, s.latency_spikes);
  };
  EXPECT_EQ(run(), run());  // bit-identical replay

  // And the rates actually injected something.
  MemDevice mem(64, kPage);
  FaultInjectingDevice dev(&mem, plan);
  std::vector<uint8_t> buf(kPage, 0x42);
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      dev.Write(static_cast<uint64_t>(i) % 64, 1, buf, 0);
    } else {
      dev.Read(static_cast<uint64_t>(i) % 64, 1, buf, 0);
    }
  }
  const FaultStats s = dev.fault_stats();
  EXPECT_GT(s.transient_errors, 0);
  EXPECT_GT(s.torn_writes + s.bit_flips + s.latency_spikes, 0);
}

TEST(FaultDeviceTest, TornMultiPageWriteLandsAPrefixOfWholePages) {
  MemDevice mem(16, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;
  FaultInjectingDevice dev(&mem, plan);
  std::vector<uint8_t> old_content(4 * kPage, 0xAA);
  std::vector<uint8_t> new_content(4 * kPage, 0xBB);
  ASSERT_TRUE(dev.Write(0, 4, old_content, 0).ok());  // op 0
  ASSERT_TRUE(dev.Write(0, 4, new_content, 0).ok());  // op 1: torn prefix
  std::vector<uint8_t> out(4 * kPage);
  ASSERT_TRUE(dev.Read(0, 4, out, 0).ok());
  // Each page is either entirely new or entirely old, and once a page is
  // old every later page is old too (a prefix landed).
  bool seen_old = false;
  for (int p = 0; p < 4; ++p) {
    const uint8_t first = out[static_cast<size_t>(p) * kPage];
    ASSERT_TRUE(first == 0xAA || first == 0xBB);
    for (uint32_t i = 1; i < kPage; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(p) * kPage + i], first);
    }
    if (first == 0xAA) seen_old = true;
    if (seen_old) {
      EXPECT_EQ(first, 0xAA);
    }
  }
  EXPECT_TRUE(seen_old);  // a 4-page tear always drops at least one page
}

}  // namespace
}  // namespace turbobp
