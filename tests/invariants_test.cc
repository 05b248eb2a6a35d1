// Mid-stream structural checks: the µ stores of the four lattice algorithms
// must satisfy Invariant 1 (BottomUp family: full contextual skylines) or
// Invariant 2 (TopDown family: maximal skyline constraints only) at every
// checkpoint, exactly as the paper's correctness proofs claim.

#include <filesystem>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "core/bottom_up.h"
#include "core/shared_bottom_up.h"
#include "core/shared_top_down.h"
#include "core/top_down.h"
#include "storage/file_mu_store.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::VerifyInvariant1;
using testing_util::VerifyInvariant2;

struct InvariantCase {
  std::string label;
  RandomDataConfig data;
  DiscoveryOptions options;
};

// Print the label, not gtest's default byte dump: the dump holds the string's
// heap address, which would make the test's name differ from run to run.
std::ostream& operator<<(std::ostream& os, const InvariantCase& c) {
  return os << c.label;
}

class InvariantTest : public ::testing::TestWithParam<InvariantCase> {
 protected:
  template <typename Algo>
  void CheckAtCheckpoints(bool invariant1) {
    const auto& param = GetParam();
    Dataset data = RandomDataset(param.data);
    Relation rel(data.schema());
    Algo disc(&rel, param.options);
    std::vector<SkylineFact> facts;
    int i = 0;
    for (const Row& row : data.rows()) {
      TupleId t = rel.Append(row);
      facts.clear();
      disc.Discover(t, &facts);
      if (++i % 25 == 0 || i == static_cast<int>(data.rows().size())) {
        if (invariant1) {
          VerifyInvariant1(rel, disc.mutable_store(), disc.max_bound_dims(),
                           disc.subspaces());
        } else {
          VerifyInvariant2(rel, disc.mutable_store(), disc.max_bound_dims(),
                           disc.subspaces());
        }
        if (HasFatalFailure()) return;
      }
    }
  }
};

TEST_P(InvariantTest, BottomUpKeepsInvariant1) {
  CheckAtCheckpoints<BottomUpDiscoverer>(/*invariant1=*/true);
}

TEST_P(InvariantTest, SharedBottomUpKeepsInvariant1) {
  CheckAtCheckpoints<SharedBottomUpDiscoverer>(/*invariant1=*/true);
}

TEST_P(InvariantTest, TopDownKeepsInvariant2) {
  CheckAtCheckpoints<TopDownDiscoverer>(/*invariant1=*/false);
}

TEST_P(InvariantTest, SharedTopDownKeepsInvariant2) {
  CheckAtCheckpoints<SharedTopDownDiscoverer>(/*invariant1=*/false);
}

std::vector<InvariantCase> InvariantCases() {
  std::vector<InvariantCase> cases;
  RandomDataConfig base;
  base.num_tuples = 75;
  base.seed = 31337;
  cases.push_back({"d3_m2", base, {}});

  RandomDataConfig dup = base;
  dup.duplicate_prob = 0.3;
  dup.measure_levels = 3;
  dup.seed = 31338;
  cases.push_back({"duplicates", dup, {}});

  RandomDataConfig wide = base;
  wide.num_dims = 4;
  wide.num_measures = 3;
  wide.num_tuples = 60;
  wide.seed = 31339;
  cases.push_back({"d4_m3_truncated", wide,
                   {.max_bound_dims = 2, .max_measure_dims = 2}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, InvariantTest, ::testing::ValuesIn(InvariantCases()),
    [](const ::testing::TestParamInfo<InvariantCase>& info) {
      return info.param.label;
    });

// Invariant 1 must hold for the *file-backed* store as well; this doubles as
// an end-to-end test that buckets survive the read-modify-write cycle.
TEST(FileStoreInvariant, SharedTopDownOnDiskKeepsInvariant2) {
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.seed = 777;
  Dataset data = RandomDataset(cfg);
  Relation rel(data.schema());
  auto dir = (std::filesystem::temp_directory_path() / "sitfact_inv_fs")
                 .string();
  SharedTopDownDiscoverer disc(&rel, {},
                               std::make_unique<FileMuStore>(dir));
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    facts.clear();
    disc.Discover(rel.Append(row), &facts);
  }
  VerifyInvariant2(rel, disc.mutable_store(), disc.max_bound_dims(),
                   disc.subspaces());
}

}  // namespace
}  // namespace sitfact
