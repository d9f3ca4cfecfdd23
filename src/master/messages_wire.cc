// The one hand-written codec of the master control plane: SubmitAppRpc
// still decodes v1 frames, which end after the client id. Every other
// layout is a field list in messages.h.

#include "master/messages.h"

namespace fuxi::master {

void WireEncode(wire::Writer& w, const SubmitAppRpc& m) {
  w.Id(m.app);
  w.Str(m.tenant_path);
  WireEncode(w, m.description);
  w.Id(m.client);
  w.F64(m.weight);
}

Status WireDecode(wire::Reader& r, SubmitAppRpc& m) {
  FUXI_RETURN_IF_ERROR(r.Id(&m.app));
  FUXI_RETURN_IF_ERROR(r.Str(&m.tenant_path));
  FUXI_RETURN_IF_ERROR(WireDecode(r, m.description));
  FUXI_RETURN_IF_ERROR(r.Id(&m.client));
  // v1 frames end after the client id: the old flat group name already
  // landed in tenant_path (a single-segment path is a root-level
  // tenant) and the weight keeps its 1.0 default.
  if (r.msg_version() == 1) return Status::Ok();
  return r.F64(&m.weight);
}

}  // namespace fuxi::master
