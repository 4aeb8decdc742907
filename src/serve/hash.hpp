// Canonical content digests of the model types handled by the evaluation
// service (src/serve).  The hasher and key are core::Hasher and
// core::CacheKey (core/hash.hpp); the LTS digest lives next to lts::Lts.
#pragma once

#include "core/hash.hpp"
#include "imc/imc.hpp"
#include "lts/lts.hpp"
#include "markov/ctmc.hpp"

namespace multival::serve {

using core::CacheKey;
using core::CacheKeyHash;
using core::Hasher;
using lts::hash_append;

void hash_append(Hasher& h, const imc::Imc& m);
void hash_append(Hasher& h, const markov::Ctmc& c);

}  // namespace multival::serve
