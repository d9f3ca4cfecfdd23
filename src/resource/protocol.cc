// The one hand-written codec of the resource protocol: UnitRequestDelta's
// `def` and `plan` follow their has_ flags only when set, which a plain
// field list cannot say. Every other layout is a field list in request.h
// and protocol.h.

#include "resource/protocol.h"

namespace fuxi::resource {

void WireEncode(wire::Writer& w, const UnitRequestDelta& m) {
  w.U32(m.slot_id);
  w.Bool(m.has_def);
  if (m.has_def) WireEncode(w, m.def);
  w.I64(m.total_count_delta);
  w.Vec(m.hints);
  w.Vec(m.avoid_add);
  w.Vec(m.avoid_remove);
  w.Bool(m.has_plan);
  if (m.has_plan) WireEncode(w, m.plan);
}

Status WireDecode(wire::Reader& r, UnitRequestDelta& m) {
  FUXI_RETURN_IF_ERROR(r.U32(&m.slot_id));
  FUXI_RETURN_IF_ERROR(r.Bool(&m.has_def));
  if (m.has_def) FUXI_RETURN_IF_ERROR(WireDecode(r, m.def));
  FUXI_RETURN_IF_ERROR(r.I64(&m.total_count_delta));
  FUXI_RETURN_IF_ERROR(r.Vec(&m.hints));
  FUXI_RETURN_IF_ERROR(r.Vec(&m.avoid_add));
  FUXI_RETURN_IF_ERROR(r.Vec(&m.avoid_remove));
  FUXI_RETURN_IF_ERROR(r.Bool(&m.has_plan));
  if (m.has_plan) return WireDecode(r, m.plan);
  m.plan = PlanningHints{};
  return Status::Ok();
}

}  // namespace fuxi::resource
