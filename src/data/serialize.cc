#include "data/serialize.h"

#include <string>
#include <utility>

namespace vqdr {

namespace {

// Generous structural bound; engine schemas stay tiny, and the decoder must
// reject a forged arity before multiplying it into allocation sizes.
constexpr std::uint64_t kMaxArity = 4096;

}  // namespace

void EncodeSchema(const Schema& schema, wire::Encoder& enc) {
  enc.U64(schema.decls().size());
  for (const RelationDecl& decl : schema.decls()) {
    enc.Str(decl.name);
    enc.U32(static_cast<std::uint32_t>(decl.arity));
  }
}

bool DecodeSchema(wire::Decoder& dec, Schema* out) {
  std::uint64_t count = dec.U64();
  if (!dec.CheckCount(count, 12)) return false;
  Schema schema;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = dec.Str();
    std::uint32_t arity = dec.U32();
    if (!dec.ok() || name.empty() || arity > kMaxArity) return false;
    // Schema::Add aborts on a duplicate with a different arity; a snapshot
    // payload must fail the decode instead.
    if (schema.Contains(name)) return false;
    schema.Add(name, static_cast<int>(arity));
  }
  *out = std::move(schema);
  return true;
}

void EncodeTuple(TupleRef tuple, wire::Encoder& enc) {
  enc.U64(tuple.size());
  for (Value v : tuple) enc.I64(v.id);
}

bool DecodeTuple(wire::Decoder& dec, Tuple* out) {
  std::uint64_t size = dec.U64();
  if (!dec.CheckCount(size, 8) || size > kMaxArity) return false;
  Tuple tuple;
  tuple.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) tuple.push_back(Value(dec.I64()));
  if (!dec.ok()) return false;
  *out = std::move(tuple);
  return true;
}

void EncodeInstance(const Instance& instance, wire::Encoder& enc) {
  EncodeSchema(instance.schema(), enc);
  std::uint64_t populated = 0;
  for (const RelationDecl& decl : instance.schema().decls()) {
    if (!instance.Get(decl.name).empty()) ++populated;
  }
  enc.U64(populated);
  for (const RelationDecl& decl : instance.schema().decls()) {
    const Relation& rel = instance.Get(decl.name);
    if (rel.empty()) continue;
    enc.Str(decl.name);
    enc.U64(rel.size());
    // Tuples share the relation arity, so values are written flat.
    for (TupleRef tuple : rel.tuples()) {
      for (Value v : tuple) enc.I64(v.id);
    }
  }
}

bool DecodeInstance(wire::Decoder& dec, Instance* out) {
  Schema schema;
  if (!DecodeSchema(dec, &schema)) return false;
  Instance instance(schema);
  std::uint64_t relations = dec.U64();
  if (!dec.CheckCount(relations, 16)) return false;
  for (std::uint64_t r = 0; r < relations; ++r) {
    std::string name = dec.Str();
    std::uint64_t tuples = dec.U64();
    if (!dec.ok()) return false;
    std::optional<int> arity = schema.ArityOf(name);
    if (!arity.has_value()) return false;
    std::size_t width = static_cast<std::size_t>(*arity);
    if (!dec.CheckCount(tuples, width * 8)) return false;
    // Rows arrive sorted from EncodeInstance, so building the relation
    // sorts nothing; a forged payload is sorted and deduplicated like any
    // batch.
    RowBuffer rows(*arity);
    rows.Reserve(static_cast<std::size_t>(tuples));
    for (std::uint64_t t = 0; t < tuples; ++t) {
      Value* row = rows.AppendRow();
      for (std::size_t i = 0; i < width; ++i) row[i] = Value(dec.I64());
      if (!dec.ok()) return false;
    }
    if (tuples == 0) continue;
    // A name repeated in a forged payload adds to what it named before.
    Relation& target = instance.GetMutable(name);
    if (target.empty()) {
      target = Relation(std::move(rows));
    } else {
      target.InsertNew(Relation(std::move(rows)));
    }
  }
  *out = std::move(instance);
  return true;
}

}  // namespace vqdr
