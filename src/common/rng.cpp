#include "gosh/common/rng.hpp"

namespace gosh {

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Mix the full current state with the stream id so that repeated splits
  // from the same parent with different ids are pairwise independent.
  std::uint64_t digest = s_[0];
  digest = hash_combine(digest, s_[1]);
  digest = hash_combine(digest, s_[2]);
  digest = hash_combine(digest, s_[3]);
  return Rng{hash_combine(digest, stream)};
}

}  // namespace gosh
