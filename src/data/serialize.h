#ifndef VQDR_DATA_SERIALIZE_H_
#define VQDR_DATA_SERIALIZE_H_

#include "base/wire.h"
#include "data/instance.h"
#include "data/schema.h"
#include "data/tuple.h"

// Binary codecs for the data layer, used by the memo snapshot (DESIGN.md
// §14). Values are encoded as their raw int64 ids — exactness matters more
// than readability here: the memo keys embed the same ids, so a restored
// entry replays byte-identically or (if the environment interned values
// differently) misses harmlessly.
//
// Every Decode* validates before mutating: counts are bounded by the input
// size, relation names must exist in the schema, and tuple widths must match
// the declared arity, so no malformed payload can reach an aborting
// VQDR_CHECK. Decoders return false (leaving *out unspecified) on damage.

namespace vqdr {

void EncodeSchema(const Schema& schema, wire::Encoder& enc);
bool DecodeSchema(wire::Decoder& dec, Schema* out);

void EncodeTuple(TupleRef tuple, wire::Encoder& enc);
bool DecodeTuple(wire::Decoder& dec, Tuple* out);

void EncodeInstance(const Instance& instance, wire::Encoder& enc);
bool DecodeInstance(wire::Decoder& dec, Instance* out);

}  // namespace vqdr

#endif  // VQDR_DATA_SERIALIZE_H_
