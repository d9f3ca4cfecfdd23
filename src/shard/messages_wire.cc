// The one hand-written codec of shard federation: RouteSubmitRpc still
// decodes v1 frames, which end after the client id. Every other layout
// is a field list in messages.h.

#include "shard/messages.h"

namespace fuxi::shard {

void WireEncode(wire::Writer& w, const RouteSubmitRpc& m) {
  w.Id(m.app);
  w.Str(m.tenant_path);
  WireEncode(w, m.description);
  w.Id(m.client);
  w.F64(m.weight);
}

Status WireDecode(wire::Reader& r, RouteSubmitRpc& m) {
  FUXI_RETURN_IF_ERROR(r.Id(&m.app));
  FUXI_RETURN_IF_ERROR(r.Str(&m.tenant_path));
  FUXI_RETURN_IF_ERROR(WireDecode(r, m.description));
  FUXI_RETURN_IF_ERROR(r.Id(&m.client));
  // v1 frames end after the client id (see SubmitAppRpc: the flat
  // group name is a root-level tenant path, weight stays 1.0).
  if (r.msg_version() == 1) return Status::Ok();
  return r.F64(&m.weight);
}

}  // namespace fuxi::shard
