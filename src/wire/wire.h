#ifndef FUXI_WIRE_WIRE_H_
#define FUXI_WIRE_WIRE_H_

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/json.h"
#include "common/status.h"

/// fuxi::wire — the canonical binary wire format under every control-plane
/// RPC (DESIGN.md §10).
///
/// Every message type that crosses node boundaries states its layout once,
/// in the header that defines it, as an ordered field list:
///
///   FUXI_WIRE_FIELDS(ReleaseDelta, m.slot_id, m.machine, m.count)
///
/// and the generic WireEncode/WireDecode below walk that list, so encoder
/// and decoder cannot disagree. Top-level messages (things handed to
/// net::Network::Send) also register their identity — a tag in the central
/// registry below plus a format version:
///
///   FUXI_WIRE_MESSAGE(ResyncRpc, 1, m.app, m.reply_to, m.incarnation)
///
/// and are framed as  [varint tag][version byte][body][fixed32 checksum].
/// The checksum covers tag+version+body, so any single corrupted byte is a
/// guaranteed decode failure — corruption surfaces as a counted drop at the
/// transport, never as a crash or a silently wrong message.
///
/// A type whose layout is not a plain field list (conditional or trimmed
/// fields, older versions still decoded) writes the pair of free functions
/// by hand, found by argument-dependent lookup:
///
///   void WireEncode(wire::Writer& w, const T& msg);
///   Status WireDecode(wire::Reader& r, T& msg);
///
/// The encoding is canonical: a given value has exactly one byte string
/// (varints are minimal, doubles are raw IEEE-754 bits, object keys are
/// sorted), so encode→decode→encode is byte-identical and measured sizes
/// are exact, not estimates.
namespace fuxi::wire {

// ---------------------------------------------------------------------
// Message tag registry
// ---------------------------------------------------------------------

/// One tag per top-level message type, allocated centrally so two modules
/// can never collide. Tags are forever: never reuse a retired value.
enum class MsgTag : uint16_t {
  kInvalid = 0,

  // resource protocol (src/resource)
  kStampedRequest = 1,
  kStampedGrant = 2,
  kResyncRequest = 3,

  // master control plane (src/master)
  kRequestRpc = 16,
  kGrantRpc = 17,
  kResyncRpc = 18,
  kBadMachineReportRpc = 19,
  kAgentHeartbeatRpc = 20,
  kAgentCapacityRpc = 21,
  kAgentHeartbeatAckRpc = 22,
  kMasterRecoveryAnnounceRpc = 23,
  kSubmitAppRpc = 24,
  kSubmitAppReplyRpc = 25,
  kStartAppMasterRpc = 26,
  kStopAppRpc = 27,
  kStartWorkerRpc = 28,
  kWorkerStartedRpc = 29,
  kStopWorkerRpc = 30,
  kWorkerCrashedRpc = 31,
  kAdoptQueryRpc = 32,
  kAdoptReplyRpc = 33,

  // job control plane (src/job)
  kWorkerReadyRpc = 48,
  kExecuteInstanceRpc = 49,
  kCancelInstanceRpc = 50,
  kInstanceDoneRpc = 51,
  kWorkerStatusReportRpc = 52,

  // coord lease protocol (src/coord)
  kLeaseAcquireRpc = 64,
  kLeaseRenewRpc = 65,
  kLeaseReleaseRpc = 66,
  kLeaseReplyRpc = 67,

  // shard federation (src/shard; ShardStatusRpc is sent by src/master)
  kShardStatusRpc = 80,
  kShardLookupRpc = 81,
  kShardDirectoryReplyRpc = 82,
  kRouteSubmitRpc = 83,
  kRouteReplyRpc = 84,

  // reserved for tests (tests/net_test.cc, obs_test.cc, sweep_test.cc)
  kTestPing = 240,
  kTestPong = 241,
  kTestPingRpc = 242,
  kTestRelayRpc = 243,
  kTestStrayRpc = 244,
  kTestText = 245,
  kTestLate3 = 246,
  kTestLate31 = 247,
  kTestSlotProbe = 248,
};

/// Stable short name ("master.RequestRpc") used for per-type byte metrics
/// and tooling output. Returns "wire.unknown" for unregistered values.
std::string_view MsgTagName(MsgTag tag);

/// Identity of a top-level message: its registry tag plus a format version
/// byte. Decode rejects versions outside the supported range as corruption.
///
/// By default only the current `version` is accepted (no cross-version
/// decoding in the simulator — both ends are usually the same build). A
/// message that must keep decoding frames from an older layout — e.g.
/// checkpointed or replayed traffic across a format migration — sets
/// `min_version` to the oldest still-readable layout; decode then accepts
/// the whole [min_version, version] range and exposes the frame's actual
/// version through Reader::msg_version() so the codec can skip fields the
/// old layout did not carry.
struct TypeInfo {
  MsgTag tag = MsgTag::kInvalid;
  uint8_t version = 1;
  /// Oldest decodable layout; 0 means "current version only".
  uint8_t min_version = 0;
};

/// The version argument of FUXI_WIRE_MESSAGE: a plain number, or
/// Versions(current, oldest) for a message that still decodes older
/// layouts.
struct Versions {
  constexpr Versions(uint8_t current, uint8_t oldest = 0)
      : current(current), oldest(oldest) {}
  uint8_t current;
  uint8_t oldest;
};

constexpr TypeInfo MakeTypeInfo(MsgTag tag, Versions v) {
  return {tag, v.current, v.oldest};
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Canonical encoder. With a sink it appends bytes; without one it only
/// counts them, so measuring an exact wire size costs no allocation.
class Writer {
 public:
  /// Counting-only writer: bytes_written() gives the exact encoded size.
  Writer() = default;
  /// Serializing writer: appends to `*out` (not cleared first).
  explicit Writer(std::string* out) : out_(out) {}

  void Byte(uint8_t b) {
    ++size_;
    if (out_ != nullptr) out_->push_back(static_cast<char>(b));
  }

  /// Unsigned LEB128 varint (1..10 bytes, minimal form).
  void U64(uint64_t v) {
    while (v >= 0x80) {
      Byte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    Byte(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) { U64(v); }

  /// Zigzag-mapped varint: small magnitudes of either sign stay short.
  void I64(int64_t v) {
    U64((static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63));
  }
  void I32(int32_t v) { I64(v); }

  void Bool(bool b) { Byte(b ? 1 : 0); }

  /// Fixed 8-byte little-endian IEEE-754 bits: round trips are bit-exact
  /// (including -0.0 and NaN payloads), unlike any text path.
  void F64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(bits >> (8 * i)));
  }

  /// Varint length + raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    size_ += s.size();
    if (out_ != nullptr) out_->append(s.data(), s.size());
  }

  template <typename Tag>
  void Id(TypedId<Tag> id) {
    I64(id.value());
  }

  /// Varint count + elements, each encoded as a field (EncodeField).
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(v.size());
    for (const T& elem : v) EncodeField(*this, elem);
  }

  size_t bytes_written() const { return size_; }

 private:
  std::string* out_ = nullptr;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked decoder over a byte view. Every read returns Status;
/// malformed input — truncation, non-minimal varints, impossible lengths —
/// is kCorruption, never undefined behaviour or an allocation bomb.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// The frame's version byte when decoding a framed message; 0 for
  /// unframed bodies (which are always the current layout). Codecs of
  /// migrating messages (TypeInfo::min_version set) branch on this to
  /// skip fields older layouts did not carry.
  uint8_t msg_version() const { return msg_version_; }
  void set_msg_version(uint8_t v) { msg_version_ = v; }

  Status Byte(uint8_t* out) {
    if (AtEnd()) return Truncated("byte");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }

  Status U64(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = 0;
      FUXI_RETURN_IF_ERROR(Byte(&b));
      uint64_t chunk = b & 0x7f;
      if (shift == 63 && chunk > 1) {
        return Status::Corruption("wire: varint overflows 64 bits");
      }
      value |= chunk << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift != 0) {
          return Status::Corruption("wire: non-minimal varint");
        }
        *out = value;
        return Status::Ok();
      }
    }
    return Status::Corruption("wire: varint longer than 10 bytes");
  }

  Status U32(uint32_t* out) {
    uint64_t v = 0;
    FUXI_RETURN_IF_ERROR(U64(&v));
    if (v > UINT32_MAX) return Status::Corruption("wire: u32 out of range");
    *out = static_cast<uint32_t>(v);
    return Status::Ok();
  }

  Status I64(int64_t* out) {
    uint64_t z = 0;
    FUXI_RETURN_IF_ERROR(U64(&z));
    *out = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    return Status::Ok();
  }

  Status I32(int32_t* out) {
    int64_t v = 0;
    FUXI_RETURN_IF_ERROR(I64(&v));
    if (v < INT32_MIN || v > INT32_MAX) {
      return Status::Corruption("wire: i32 out of range");
    }
    *out = static_cast<int32_t>(v);
    return Status::Ok();
  }

  Status Bool(bool* out) {
    uint8_t b = 0;
    FUXI_RETURN_IF_ERROR(Byte(&b));
    if (b > 1) return Status::Corruption("wire: bool byte not 0/1");
    *out = (b == 1);
    return Status::Ok();
  }

  Status F64(double* out) {
    if (remaining() < 8) return Truncated("f64");
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }

  Status Str(std::string* out) {
    uint64_t len = 0;
    FUXI_RETURN_IF_ERROR(U64(&len));
    if (len > remaining()) return Truncated("string body");
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  template <typename Tag>
  Status Id(TypedId<Tag>* out) {
    int64_t v = 0;
    FUXI_RETURN_IF_ERROR(I64(&v));
    *out = TypedId<Tag>(v);
    return Status::Ok();
  }

  /// Validating enum read: the raw varint must not exceed the largest
  /// declared enumerator.
  template <typename E>
  Status Enum(E* out, E max_inclusive) {
    uint64_t raw = 0;
    FUXI_RETURN_IF_ERROR(U64(&raw));
    if (raw > static_cast<uint64_t>(max_inclusive)) {
      return Status::Corruption("wire: enum value out of range");
    }
    *out = static_cast<E>(raw);
    return Status::Ok();
  }

  /// The claimed element count is checked against the bytes actually left
  /// (every element costs >= 1 byte), so a corrupted count can never drive
  /// a giant allocation.
  template <typename T>
  Status Vec(std::vector<T>* out) {
    uint64_t count = 0;
    FUXI_RETURN_IF_ERROR(U64(&count));
    if (count > remaining()) {
      return Status::Corruption("wire: vector count exceeds remaining bytes");
    }
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      T elem{};
      FUXI_RETURN_IF_ERROR(DecodeField(*this, elem));
      out->push_back(std::move(elem));
    }
    return Status::Ok();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::Corruption(std::string("wire: truncated reading ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
  uint8_t msg_version_ = 0;
};

// ---------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------

template <typename T>
inline constexpr bool kIsTypedId = false;
template <typename Tag>
inline constexpr bool kIsTypedId<TypedId<Tag>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Encodes one field by its exact type. Dispatch is on the type itself,
/// never on a conversion: a bool promoted to int64_t would zigzag 1 to 2
/// and silently change the bytes. An enum is a varint; its type names its
/// largest value with `constexpr E WireEnumMax(E)`. Any other type goes
/// to its own codec (a field list or a hand-written pair) by ADL.
template <typename T>
void EncodeField(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, uint64_t>) w.U64(v);
  else if constexpr (std::is_same_v<T, uint32_t>) w.U32(v);
  else if constexpr (std::is_same_v<T, int64_t>) w.I64(v);
  else if constexpr (std::is_same_v<T, int32_t>) w.I32(v);
  else if constexpr (std::is_same_v<T, bool>) w.Bool(v);
  else if constexpr (std::is_same_v<T, double>) w.F64(v);
  else if constexpr (std::is_same_v<T, std::string>) w.Str(v);
  else if constexpr (std::is_enum_v<T>) w.U64(static_cast<uint64_t>(v));
  else if constexpr (kIsTypedId<T>) w.Id(v);
  else if constexpr (kIsVector<T>) w.Vec(v);
  else WireEncode(w, v);
}

/// The decoding twin of EncodeField, keeping every Reader check: u32/i32
/// range, bool 0/1, enum <= WireEnumMax, vector count <= bytes left.
template <typename T>
Status DecodeField(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, uint64_t>) return r.U64(&v);
  else if constexpr (std::is_same_v<T, uint32_t>) return r.U32(&v);
  else if constexpr (std::is_same_v<T, int64_t>) return r.I64(&v);
  else if constexpr (std::is_same_v<T, int32_t>) return r.I32(&v);
  else if constexpr (std::is_same_v<T, bool>) return r.Bool(&v);
  else if constexpr (std::is_same_v<T, double>) return r.F64(&v);
  else if constexpr (std::is_same_v<T, std::string>) return r.Str(&v);
  else if constexpr (std::is_enum_v<T>) return r.Enum(&v, WireEnumMax(T{}));
  else if constexpr (kIsTypedId<T>) return r.Id(&v);
  else if constexpr (kIsVector<T>) return r.Vec(&v);
  else return WireDecode(r, v);
}

/// M is T or const T, so one field list serves encode and decode.
template <typename M, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<M>, T>;

/// T declared its layout with FUXI_WIRE_FIELDS (or FUXI_WIRE_MESSAGE).
template <typename T>
concept HasFieldList = requires(T& m) { WireFields(m); };

/// Declares T's layout: its fields, encoded in list order. Each field is
/// an expression on `m`, the message: FUXI_WIRE_FIELDS(T, m.a, m.b).
#define FUXI_WIRE_FIELDS(T, ...)         \
  template <::fuxi::wire::FieldsOf<T> M> \
  constexpr auto WireFields(M& m) {      \
    return std::tie(__VA_ARGS__);        \
  }

/// Declares a top-level message: tag MsgTag::k##T, the format version
/// (a number, or wire::Versions(current, oldest)), and its field list.
/// With no fields, the type's codec is written by hand or comes from a
/// template's field list (Stamped<Delta>).
#define FUXI_WIRE_MESSAGE(T, VERSION, ...)                        \
  constexpr ::fuxi::wire::TypeInfo WireTypeInfo(const T*) {       \
    return ::fuxi::wire::MakeTypeInfo(::fuxi::wire::MsgTag::k##T, \
                                      VERSION);                   \
  }                                                               \
  __VA_OPT__(FUXI_WIRE_FIELDS(T, __VA_ARGS__))

template <HasFieldList T>
void WireEncode(Writer& w, const T& m) {
  std::apply([&w](const auto&... field) { (EncodeField(w, field), ...); },
             WireFields(m));
}

/// Decodes `first`, then `rest` in order, stopping at the first failure.
/// (Recursion, not a fold over one Status: assigning a Status per field
/// made decode ~20% slower.)
template <typename Field, typename... Rest>
Status DecodeFields(Reader& r, Field& first, Rest&... rest) {
  if constexpr (sizeof...(Rest) == 0) {
    return DecodeField(r, first);
  } else {
    FUXI_RETURN_IF_ERROR(DecodeField(r, first));
    return DecodeFields(r, rest...);
  }
}

template <HasFieldList T>
Status WireDecode(Reader& r, T& m) {
  return std::apply(
      [&r](auto&... field) { return DecodeFields(r, field...); },
      WireFields(m));
}

/// Structural Json codec: type byte + payload, recursing through arrays
/// and objects (sorted keys come free from Json::Object being a std::map;
/// numbers are raw double bits, so round trips are exact where the text
/// path would re-parse). Decode caps nesting depth at 64.
void WireEncode(Writer& w, const Json& json);
Status WireDecode(Reader& r, Json& json);

/// A shared document travels as its pointee, byte for byte a Json field;
/// null encodes as Json null and decodes back to null. Decoding builds a
/// fresh document, so a received message never aliases the sender's.
void WireEncode(Writer& w, const SharedJson& json);
Status WireDecode(Reader& r, SharedJson& json);

// ---------------------------------------------------------------------
// Concepts
// ---------------------------------------------------------------------

/// T has an encode/decode pair: a field list or a hand-written codec
/// (possibly a nested struct with no tag).
template <typename T>
concept WireCodec = requires(Writer& w, Reader& r, const T& c, T& m) {
  WireEncode(w, c);
  { WireDecode(r, m) } -> std::same_as<Status>;
};

/// T is a framed top-level message: codec + registry identity. This is
/// what net::Network::Send detects to measure and round-trip payloads.
template <typename T>
concept WireMessage = WireCodec<T> && requires(const T* p) {
  { WireTypeInfo(p) } -> std::convertible_to<TypeInfo>;
};

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// FNV-1a over the frame prefix. 32 bits: any single-byte flip is a
/// guaranteed mismatch; random multi-byte garbage passes with p ~ 2^-32.
inline uint32_t FrameChecksum(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

inline constexpr size_t kChecksumBytes = 4;

template <typename T>
  requires WireMessage<T>
constexpr TypeInfo TypeInfoOf() {
  return WireTypeInfo(static_cast<const T*>(nullptr));
}

/// Appends the full frame for `msg` to `*out`.
template <typename T>
  requires WireMessage<T>
void EncodeFramed(const T& msg, std::string* out) {
  const size_t start = out->size();
  Writer w(out);
  constexpr TypeInfo info = TypeInfoOf<T>();
  w.U64(static_cast<uint64_t>(info.tag));
  w.Byte(info.version);
  WireEncode(w, msg);
  uint32_t sum = FrameChecksum(
      std::string_view(out->data() + start, out->size() - start));
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(sum >> (8 * i)));
  }
}

/// Exact frame size of `msg` without serializing (counting writer).
template <typename T>
  requires WireMessage<T>
size_t FramedSize(const T& msg) {
  Writer w;
  constexpr TypeInfo info = TypeInfoOf<T>();
  w.U64(static_cast<uint64_t>(info.tag));
  w.Byte(info.version);
  WireEncode(w, msg);
  return w.bytes_written() + kChecksumBytes;
}

/// Decodes one full frame into `*msg` (reset to default first). Fails with
/// kCorruption on checksum mismatch, wrong tag or version, any malformed
/// field, or trailing bytes. On failure `*msg` is default-initialized or
/// partially decoded — never UB.
template <typename T>
  requires WireMessage<T>
Status DecodeFramed(std::string_view bytes, T* msg) {
  if (bytes.size() < 1 + 1 + kChecksumBytes) {
    return Status::Corruption("wire: frame shorter than minimum");
  }
  const std::string_view prefix = bytes.substr(0, bytes.size() - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<uint8_t>(bytes[bytes.size() - 4 + i]))
              << (8 * i);
  }
  if (FrameChecksum(prefix) != stored) {
    return Status::Corruption("wire: frame checksum mismatch");
  }
  Reader r(prefix);
  uint64_t tag;
  FUXI_RETURN_IF_ERROR(r.U64(&tag));
  constexpr TypeInfo info = TypeInfoOf<T>();
  if (tag != static_cast<uint64_t>(info.tag)) {
    return Status::Corruption("wire: frame tag mismatch");
  }
  uint8_t version = 0;
  FUXI_RETURN_IF_ERROR(r.Byte(&version));
  constexpr uint8_t min_version =
      info.min_version == 0 ? info.version : info.min_version;
  if (version < min_version || version > info.version) {
    return Status::Corruption("wire: unsupported message version");
  }
  r.set_msg_version(version);
  *msg = T{};
  FUXI_RETURN_IF_ERROR(WireDecode(r, *msg));
  if (!r.AtEnd()) {
    return Status::Corruption("wire: trailing bytes after message body");
  }
  return Status::Ok();
}

/// Convenience: frame to a fresh string.
template <typename T>
  requires WireMessage<T>
std::string EncodeToString(const T& msg) {
  std::string out;
  EncodeFramed(msg, &out);
  return out;
}

// ---------------------------------------------------------------------
// Bare-body helpers (nested structs without a frame, e.g. in tests)
// ---------------------------------------------------------------------

template <typename T>
  requires WireCodec<T>
std::string EncodeBody(const T& msg) {
  std::string out;
  Writer w(&out);
  WireEncode(w, msg);
  return out;
}

template <typename T>
  requires WireCodec<T>
Status DecodeBody(std::string_view bytes, T* msg) {
  Reader r(bytes);
  *msg = T{};
  FUXI_RETURN_IF_ERROR(WireDecode(r, *msg));
  if (!r.AtEnd()) {
    return Status::Corruption("wire: trailing bytes after body");
  }
  return Status::Ok();
}

}  // namespace fuxi::wire

#endif  // FUXI_WIRE_WIRE_H_
