#include "util/rng.h"

#include <stdexcept>

namespace fecsched {

std::vector<std::uint32_t>
sample_without_replacement(std::uint32_t population, std::uint32_t count, Rng& rng) {
  if (count > population)
    throw std::invalid_argument("sample_without_replacement: count > population");
  std::vector<std::uint32_t> pool(population);
  for (std::uint32_t i = 0; i < population; ++i) pool[i] = i;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<std::uint32_t>(rng.below(population - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace fecsched
