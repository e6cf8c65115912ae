#include "src/inputs.h"

#include <cmath>

#include "common/rng.h"
#include "serve/text_document.h"

namespace perfbench {

namespace {

/// splitmix64 finalizer: spreads (seed, stream, index) over the generator's
/// seed space so neighbouring indices give unrelated resumes.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr uint64_t kWarmupSeed = 0x5eed;

}  // namespace

ResumeInput MakeResume(uint64_t seed, Stream stream, int64_t index) {
  resuformer::Rng rng(
      Mix(Mix(Mix(seed) ^ static_cast<uint64_t>(stream)) ^
          static_cast<uint64_t>(index)));
  ResumeInput input;
  input.gold = resuformer::resumegen::GenerateResume(&rng);
  input.text = resuformer::serve::DocumentToText(input.gold.document);
  return input;
}

std::vector<ResumeInput> MakeResumes(uint64_t seed, Stream stream,
                                     int64_t first, int count) {
  std::vector<ResumeInput> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(MakeResume(seed, stream, first + i));
  }
  return out;
}

std::vector<ResumeInput> WarmupResumes(int count) {
  return MakeResumes(kWarmupSeed, Stream::kWarmup, 0, count);
}

std::vector<int64_t> PoissonDueOffsetsNs(uint64_t seed, double rate_per_s,
                                         int count) {
  std::vector<double> gaps_s(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = (i + 0.5) / count;
    gaps_s[i] = -std::log(1.0 - u) / rate_per_s;
  }
  resuformer::Rng rng(Mix(Mix(seed) ^ 0x0a11u));
  const std::vector<int> order = rng.Permutation(count);
  std::vector<int64_t> due(static_cast<size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    due[i] = static_cast<int64_t>(std::llround(t * 1e9));
    t += gaps_s[order[i]];
  }
  return due;
}

}  // namespace perfbench
