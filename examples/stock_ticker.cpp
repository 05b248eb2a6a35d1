// The introduction's finance example: "Stock A becomes the first stock in
// history with price over $300 and market cap over $400 billion." We stream
// synthetic daily quotes and report stocks whose (price, market cap, volume)
// vector enters a contextual skyline — firsts for their sector, exchange, or
// the whole market.
//
// Also demonstrates driving the library without the DiscoveryEngine facade:
// manual relation, discoverer, counter, and prominence evaluator, which is
// the integration surface a trading system with its own event loop would
// use.
//
// Usage: stock_ticker [num_quotes]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bottom_up.h"
#include "core/narrator.h"
#include "core/prominence.h"
#include "storage/context_counter.h"

using namespace sitfact;

namespace {

struct Market {
  std::vector<std::string> tickers;
  std::vector<int> sector;        // per ticker
  std::vector<int> exchange;      // per ticker
  std::vector<double> price;      // random-walk state
  std::vector<double> shares;     // millions, fixed
};

Market MakeMarket(Rng* rng, int num_stocks) {
  Market m;
  for (int i = 0; i < num_stocks; ++i) {
    m.tickers.push_back("TCK" + std::to_string(100 + i));
    m.sector.push_back(static_cast<int>(rng->NextBounded(8)));
    m.exchange.push_back(static_cast<int>(rng->NextBounded(3)));
    m.price.push_back(20.0 + rng->NextDouble() * 180.0);
    m.shares.push_back(100.0 + rng->NextDouble() * 4000.0);
  }
  return m;
}

const char* kSectors[] = {"tech",      "energy",    "finance", "health",
                          "utilities", "materials", "retail",  "transport"};
const char* kExchanges[] = {"NYSE", "NASDAQ", "LSE"};

}  // namespace

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 30000;
  Rng rng(8675309);
  Market market = MakeMarket(&rng, 120);

  Schema schema({{"ticker"}, {"sector"}, {"exchange"}, {"quarter"}},
                {{"price", Direction::kLargerIsBetter},
                 {"market_cap", Direction::kLargerIsBetter},
                 {"volume", Direction::kLargerIsBetter}});
  Relation relation(std::move(schema));

  DiscoveryOptions options;
  options.max_bound_dims = 2;
  options.max_measure_dims = 2;
  BottomUpDiscoverer discoverer(&relation, options);
  ContextCounter counter(options.max_bound_dims);
  ProminenceEvaluator prominence(&relation, &counter,
                                 discoverer.mutable_store(),
                                 StoragePolicy::kAllSkylineConstraints);
  FactNarrator narrator(&relation, relation.schema().DimensionIndex("ticker"));

  const double tau = 300.0;
  uint64_t headlines = 0;
  std::vector<SkylineFact> facts;
  for (int day = 0; day < n; ++day) {
    int s = static_cast<int>(rng.NextBounded(market.tickers.size()));
    // Geometric random walk with occasional jumps.
    double shock = rng.NextBool(0.02) ? 1.0 + 0.2 * rng.NextGaussian() : 1.0;
    market.price[s] *= shock * std::max(0.5, 1.0 + 0.02 * rng.NextGaussian());
    double volume = 1e5 * (1.0 + 30.0 * rng.NextDouble());

    Row quote;
    quote.dimensions = {market.tickers[s], kSectors[market.sector[s]],
                        kExchanges[market.exchange[s]],
                        "Q" + std::to_string(1 + (day * 16 / n) % 4)};
    quote.measures = {market.price[s],
                      market.price[s] * market.shares[s] / 1000.0,  // $B
                      volume};
    TupleId t = relation.Append(quote);
    counter.OnArrival(relation, t);
    facts.clear();
    discoverer.Discover(t, &facts);
    if (facts.empty()) continue;

    CanonicalizeFacts(&facts);
    auto ranked = prominence.RankAll(facts);
    auto prominent = SelectProminent(ranked, tau);
    if (prominent.empty()) continue;
    ++headlines;
    if (headlines <= 40) {  // keep the demo output readable
      std::printf("HEADLINE day %d: %s\n", day,
                  narrator.Narrate(t, prominent.front()).c_str());
    }
  }
  std::printf("\n== %llu headlines from %d quotes ==\n",
              static_cast<unsigned long long>(headlines), n);
  std::printf("discovery stats: %llu comparisons, %llu constraint visits\n",
              static_cast<unsigned long long>(discoverer.stats().comparisons),
              static_cast<unsigned long long>(
                  discoverer.stats().constraints_traversed));
  return 0;
}
