#include "wire/wire.h"

namespace fuxi::wire {

std::string_view MsgTagName(MsgTag tag) {
  switch (tag) {
    case MsgTag::kInvalid:
      return "unencoded";
    case MsgTag::kStampedRequest:
      return "resource.StampedRequest";
    case MsgTag::kStampedGrant:
      return "resource.StampedGrant";
    case MsgTag::kResyncRequest:
      return "resource.ResyncRequest";
    case MsgTag::kRequestRpc:
      return "master.RequestRpc";
    case MsgTag::kGrantRpc:
      return "master.GrantRpc";
    case MsgTag::kResyncRpc:
      return "master.ResyncRpc";
    case MsgTag::kBadMachineReportRpc:
      return "master.BadMachineReportRpc";
    case MsgTag::kAgentHeartbeatRpc:
      return "master.AgentHeartbeatRpc";
    case MsgTag::kAgentCapacityRpc:
      return "master.AgentCapacityRpc";
    case MsgTag::kAgentHeartbeatAckRpc:
      return "master.AgentHeartbeatAckRpc";
    case MsgTag::kMasterRecoveryAnnounceRpc:
      return "master.MasterRecoveryAnnounceRpc";
    case MsgTag::kSubmitAppRpc:
      return "master.SubmitAppRpc";
    case MsgTag::kSubmitAppReplyRpc:
      return "master.SubmitAppReplyRpc";
    case MsgTag::kStartAppMasterRpc:
      return "master.StartAppMasterRpc";
    case MsgTag::kStopAppRpc:
      return "master.StopAppRpc";
    case MsgTag::kStartWorkerRpc:
      return "master.StartWorkerRpc";
    case MsgTag::kWorkerStartedRpc:
      return "master.WorkerStartedRpc";
    case MsgTag::kStopWorkerRpc:
      return "master.StopWorkerRpc";
    case MsgTag::kWorkerCrashedRpc:
      return "master.WorkerCrashedRpc";
    case MsgTag::kAdoptQueryRpc:
      return "master.AdoptQueryRpc";
    case MsgTag::kAdoptReplyRpc:
      return "master.AdoptReplyRpc";
    case MsgTag::kWorkerReadyRpc:
      return "job.WorkerReadyRpc";
    case MsgTag::kExecuteInstanceRpc:
      return "job.ExecuteInstanceRpc";
    case MsgTag::kCancelInstanceRpc:
      return "job.CancelInstanceRpc";
    case MsgTag::kInstanceDoneRpc:
      return "job.InstanceDoneRpc";
    case MsgTag::kWorkerStatusReportRpc:
      return "job.WorkerStatusReportRpc";
    case MsgTag::kLeaseAcquireRpc:
      return "coord.LeaseAcquireRpc";
    case MsgTag::kLeaseRenewRpc:
      return "coord.LeaseRenewRpc";
    case MsgTag::kLeaseReleaseRpc:
      return "coord.LeaseReleaseRpc";
    case MsgTag::kLeaseReplyRpc:
      return "coord.LeaseReplyRpc";
    case MsgTag::kShardStatusRpc:
      return "shard.ShardStatusRpc";
    case MsgTag::kShardLookupRpc:
      return "shard.ShardLookupRpc";
    case MsgTag::kShardDirectoryReplyRpc:
      return "shard.ShardDirectoryReplyRpc";
    case MsgTag::kRouteSubmitRpc:
      return "shard.RouteSubmitRpc";
    case MsgTag::kRouteReplyRpc:
      return "shard.RouteReplyRpc";
    case MsgTag::kTestPing:
      return "test.Ping";
    case MsgTag::kTestPong:
      return "test.Pong";
    case MsgTag::kTestPingRpc:
      return "test.PingRpc";
    case MsgTag::kTestRelayRpc:
      return "test.RelayRpc";
    case MsgTag::kTestStrayRpc:
      return "test.StrayRpc";
    case MsgTag::kTestText:
      return "test.Text";
    case MsgTag::kTestLate3:
      return "test.Late3";
    case MsgTag::kTestLate31:
      return "test.Late31";
    case MsgTag::kTestSlotProbe:
      return "test.SlotProbe";
  }
  return "wire.unknown";
}

namespace {

constexpr int kMaxJsonDepth = 64;

Status DecodeJson(Reader& r, Json& json, int depth) {
  if (depth > kMaxJsonDepth) {
    return Status::Corruption("wire: json nesting too deep");
  }
  uint8_t type = 0;
  FUXI_RETURN_IF_ERROR(r.Byte(&type));
  switch (static_cast<Json::Type>(type)) {
    case Json::Type::kNull:
      json = Json();
      return Status::Ok();
    case Json::Type::kBool: {
      bool b;
      FUXI_RETURN_IF_ERROR(r.Bool(&b));
      json = Json(b);
      return Status::Ok();
    }
    case Json::Type::kNumber: {
      double d;
      FUXI_RETURN_IF_ERROR(r.F64(&d));
      json = Json(d);
      return Status::Ok();
    }
    case Json::Type::kString: {
      std::string s;
      FUXI_RETURN_IF_ERROR(r.Str(&s));
      json = Json(std::move(s));
      return Status::Ok();
    }
    case Json::Type::kArray: {
      uint64_t count;
      FUXI_RETURN_IF_ERROR(r.U64(&count));
      if (count > r.remaining()) {
        return Status::Corruption("wire: json array count exceeds bytes");
      }
      Json::Array array;
      array.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Json elem;
        FUXI_RETURN_IF_ERROR(DecodeJson(r, elem, depth + 1));
        array.push_back(std::move(elem));
      }
      json = Json(std::move(array));
      return Status::Ok();
    }
    case Json::Type::kObject: {
      uint64_t count;
      FUXI_RETURN_IF_ERROR(r.U64(&count));
      if (count > r.remaining()) {
        return Status::Corruption("wire: json object count exceeds bytes");
      }
      Json::Object object;
      for (uint64_t i = 0; i < count; ++i) {
        std::string key;
        FUXI_RETURN_IF_ERROR(r.Str(&key));
        Json value;
        FUXI_RETURN_IF_ERROR(DecodeJson(r, value, depth + 1));
        object[std::move(key)] = std::move(value);
      }
      json = Json(std::move(object));
      return Status::Ok();
    }
  }
  return Status::Corruption("wire: unknown json type byte");
}

}  // namespace

void WireEncode(Writer& w, const Json& json) {
  w.Byte(static_cast<uint8_t>(json.type()));
  switch (json.type()) {
    case Json::Type::kNull:
      break;
    case Json::Type::kBool:
      w.Bool(json.as_bool());
      break;
    case Json::Type::kNumber:
      w.F64(json.as_number());
      break;
    case Json::Type::kString:
      w.Str(json.as_string());
      break;
    case Json::Type::kArray:
      w.U64(json.as_array().size());
      for (const Json& elem : json.as_array()) WireEncode(w, elem);
      break;
    case Json::Type::kObject:
      // std::map iteration order = sorted keys = canonical bytes.
      w.U64(json.as_object().size());
      for (const auto& [key, value] : json.as_object()) {
        w.Str(key);
        WireEncode(w, value);
      }
      break;
  }
}

Status WireDecode(Reader& r, Json& json) { return DecodeJson(r, json, 0); }

void WireEncode(Writer& w, const SharedJson& json) {
  if (json == nullptr) {
    WireEncode(w, Json());
  } else {
    WireEncode(w, *json);
  }
}

Status WireDecode(Reader& r, SharedJson& json) {
  Json decoded;
  FUXI_RETURN_IF_ERROR(DecodeJson(r, decoded, 0));
  if (decoded.is_null()) {
    json = nullptr;
  } else {
    json = std::make_shared<const Json>(std::move(decoded));
  }
  return Status::Ok();
}

}  // namespace fuxi::wire
