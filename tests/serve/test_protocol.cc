/**
 * @file
 * Wire-protocol building blocks: the Json value type round-trips every
 * kind bit-exactly (ints stay ints, doubles go through "%.17g", object
 * member order is preserved — the determinism the byte-identical
 * served-sweep guarantee rests on), the parser rejects malformed
 * input, and the ModelKey JSON codec is strict about unknown fields
 * and out-of-range values and keeps the bytes earlier journals and
 * caches were keyed on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "base/hash.hh"
#include "serve/models.hh"
#include "serve/protocol.hh"

namespace {

using namespace eq;
using serve::Json;

Json
reparse(const Json &v)
{
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(v.dump(), &out, &err)) << err;
    return out;
}

TEST(ServeJson, ScalarRoundTrips)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(int64_t(-9007199254740993ll)).dump(),
              "-9007199254740993");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");

    Json i = reparse(Json(int64_t(1) << 62));
    ASSERT_TRUE(i.isInt()); // stays Int, no double round-trip damage
    EXPECT_EQ(i.asInt(), int64_t(1) << 62);
}

TEST(ServeJson, DoubleRoundTripsBitExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300,
                     -123456.789012345678, 0.0}) {
        Json out = reparse(Json(v));
        ASSERT_TRUE(out.isNumber());
        EXPECT_EQ(std::signbit(out.asReal()), std::signbit(v));
        EXPECT_EQ(out.asReal(), v) << Json(v).dump();
    }
    // Non-finite doubles are not JSON: they serialize as null.
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(ServeJson, StringEscapes)
{
    Json s(std::string("a\"b\\c\n\t\x01z"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
    Json out = reparse(s);
    EXPECT_EQ(out.asStr(), s.asStr());

    // \uXXXX escapes decode to UTF-8.
    Json u;
    std::string err;
    ASSERT_TRUE(Json::parse("\"\\u00e9\\u0041\"", &u, &err)) << err;
    EXPECT_EQ(u.asStr(), "\xc3\xa9"
                         "A");
}

TEST(ServeJson, ObjectOrderPreserved)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mid", Json::array());
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mid\":[]}");
    // set() replaces in place without reordering.
    obj.set("zebra", 9);
    EXPECT_EQ(obj.dump(), "{\"zebra\":9,\"apple\":2,\"mid\":[]}");

    Json out = reparse(obj);
    EXPECT_EQ(out.dump(), obj.dump());
    ASSERT_NE(out.find("apple"), nullptr);
    EXPECT_EQ(out.find("apple")->asInt(), 2);
    EXPECT_EQ(out.find("missing"), nullptr);
    EXPECT_EQ(out.getInt("zebra", -1), 9);
    EXPECT_EQ(out.getInt("nope", -1), -1);
}

TEST(ServeJson, ParseRejectsMalformedInput)
{
    Json out;
    std::string err;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"",
          "{\"a\" 1}", "nullx", "[1, 2", "\"unterminated"}) {
        EXPECT_FALSE(Json::parse(bad, &out, &err))
            << "accepted: " << bad;
        EXPECT_FALSE(err.empty());
    }
    // Surrounding whitespace is fine.
    EXPECT_TRUE(Json::parse("  [1,2,3]\n", &out, &err)) << err;
    ASSERT_TRUE(out.isArray());
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(out.at(2).asInt(), 3);
}

TEST(ServeJson, ResponseSkeletons)
{
    Json id(7);
    Json ok = serve::makeResponse(&id, "report");
    EXPECT_EQ(ok.getInt("id", -1), 7);
    EXPECT_TRUE(ok.getBool("ok", false));
    EXPECT_EQ(ok.getStr("type", ""), "report");

    Json err =
        serve::makeError(nullptr, serve::ErrorCode::BadRequest, "boom");
    EXPECT_FALSE(err.getBool("ok", true));
    serve::ErrorInfo info = serve::parseError(err);
    EXPECT_EQ(info.code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(info.message, "boom");
    EXPECT_EQ(info.retryAfterMs, -1);

    Json busy = serve::makeError(&id, serve::ErrorCode::Backpressure,
                                 "queue full", /*retry_after_ms=*/25);
    EXPECT_EQ(busy.getInt("id", -1), 7);
    info = serve::parseError(busy);
    EXPECT_EQ(info.code, serve::ErrorCode::Backpressure);
    EXPECT_EQ(info.retryAfterMs, 25);
}

TEST(ServeProtocol, ErrorCodeNamesRoundTrip)
{
    using serve::ErrorCode;
    for (ErrorCode code :
         {ErrorCode::MalformedRequest, ErrorCode::FrameTooLarge,
          ErrorCode::BadRequest, ErrorCode::Backpressure,
          ErrorCode::DeadlineExceeded, ErrorCode::Cancelled,
          ErrorCode::BuildFailed, ErrorCode::Internal,
          ErrorCode::ShuttingDown}) {
        ErrorCode back = ErrorCode::None;
        ASSERT_TRUE(
            serve::errorCodeFromName(serve::errorCodeName(code), &back))
            << serve::errorCodeName(code);
        EXPECT_EQ(back, code);
    }
    // Client-side-only values never parse off the wire.
    ErrorCode out = ErrorCode::None;
    EXPECT_FALSE(serve::errorCodeFromName("none", &out));
    EXPECT_FALSE(serve::errorCodeFromName("unknown", &out));
    EXPECT_FALSE(serve::errorCodeFromName("bogus", &out));

    // Retryability: only transient server-side conditions.
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::Backpressure));
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::BuildFailed));
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::Internal));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::BadRequest));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::DeadlineExceeded));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::FrameTooLarge));

    // Legacy free-text errors parse as Unknown, never crash.
    Json legacy = Json::object();
    legacy.set("ok", false);
    legacy.set("error", "something went wrong");
    EXPECT_EQ(serve::parseError(legacy).code, serve::ErrorCode::Unknown);
}

TEST(ServeLineReader, CapsOversizedLines)
{
    // A terminated line beyond the cap ends the stream with the
    // overflow bit — after shorter lines were delivered normally.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload =
        "hello\n" + std::string(64, 'x') + "\n";
    ASSERT_EQ(::write(fds[1], payload.data(), payload.size()),
              ssize_t(payload.size()));
    ::close(fds[1]);
    serve::LineReader reader(fds[0], /*max_line=*/16);
    EXPECT_EQ(reader.maxLine(), 16u);
    std::string line;
    ASSERT_TRUE(reader.next(&line));
    EXPECT_EQ(line, "hello");
    EXPECT_FALSE(reader.next(&line));
    EXPECT_TRUE(reader.overflowed());
    ::close(fds[0]);

    // An endless unterminated line overflows too — the reader must not
    // buffer until EOF.
    ASSERT_EQ(::pipe(fds), 0);
    const std::string endless(64, 'y'); // no newline
    ASSERT_EQ(::write(fds[1], endless.data(), endless.size()),
              ssize_t(endless.size()));
    serve::LineReader reader2(fds[0], /*max_line=*/16);
    EXPECT_FALSE(reader2.next(&line)); // write end still open!
    EXPECT_TRUE(reader2.overflowed());
    ::close(fds[1]);
    ::close(fds[0]);

    // At or under the cap is fine, including the unterminated tail.
    ASSERT_EQ(::pipe(fds), 0);
    const std::string tail = "ab\ncd";
    ASSERT_EQ(::write(fds[1], tail.data(), tail.size()),
              ssize_t(tail.size()));
    ::close(fds[1]);
    serve::LineReader reader3(fds[0], /*max_line=*/16);
    ASSERT_TRUE(reader3.next(&line));
    EXPECT_EQ(line, "ab");
    ASSERT_TRUE(reader3.next(&line));
    EXPECT_EQ(line, "cd");
    EXPECT_FALSE(reader3.next(&line));
    EXPECT_FALSE(reader3.overflowed());
    ::close(fds[0]);
}

// -- seeded mutation/fuzz property test for the strict parser ---------

uint64_t
fuzzRnd(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

Json
randomJson(uint64_t &s, int depth)
{
    switch (fuzzRnd(s) % (depth > 0 ? 7 : 5)) {
    case 0: return Json();
    case 1: return Json(bool(fuzzRnd(s) & 1));
    case 2: return Json(static_cast<int64_t>(fuzzRnd(s)));
    case 3:
        return Json(static_cast<double>(
                        static_cast<int64_t>(fuzzRnd(s))) *
                    1e-3);
    case 4: {
        std::string str;
        size_t n = fuzzRnd(s) % 9;
        for (size_t i = 0; i < n; ++i) {
            switch (fuzzRnd(s) % 8) {
            case 0: str += '"'; break;
            case 1: str += '\\'; break;
            case 2: str += '\n'; break;
            case 3: str += '\x01'; break;
            default:
                str += static_cast<char>(' ' + fuzzRnd(s) % 95);
            }
        }
        return Json(std::move(str));
    }
    case 5: {
        Json arr = Json::array();
        size_t n = fuzzRnd(s) % 4;
        for (size_t i = 0; i < n; ++i)
            arr.push(randomJson(s, depth - 1));
        return arr;
    }
    default: {
        Json obj = Json::object();
        size_t n = fuzzRnd(s) % 4;
        for (size_t i = 0; i < n; ++i)
            obj.set("k" + std::to_string(fuzzRnd(s) % 8),
                    randomJson(s, depth - 1));
        return obj;
    }
    }
}

TEST(ServeJsonFuzz, GeneratedDocumentsRoundTripExactly)
{
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 300; ++round) {
        Json doc = randomJson(seed, 4);
        const std::string text = doc.dump();
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(text, &back, &err))
            << text << ": " << err;
        EXPECT_EQ(back.dump(), text);
    }
}

TEST(ServeJsonFuzz, MutatedDocumentsNeverCrashAndStayCanonical)
{
    // Seeded byte-level mutations of valid documents: the parser must
    // never crash, and anything it *does* accept must reach a stable
    // canonical form after one dump (dump -> parse -> dump is the
    // identity on dumps).
    std::string charset = "{}[],:\"0123456789eE+-.truefalsn x";
    charset += '\\';
    charset.push_back('\0'); // embedded NUL: reject, don't truncate
    uint64_t seed = 0x2545f4914f6cdd1dull;
    int accepted = 0, rejected = 0;
    for (int round = 0; round < 150; ++round) {
        std::string text = randomJson(seed, 3).dump();
        for (int mut = 0; mut < 8; ++mut) {
            std::string mutated = text;
            const int edits = 1 + int(fuzzRnd(seed) % 3);
            for (int e = 0; e < edits; ++e) {
                const char c =
                    charset[fuzzRnd(seed) % charset.size()];
                const size_t pos =
                    mutated.empty() ? 0
                                    : fuzzRnd(seed) % mutated.size();
                switch (fuzzRnd(seed) % 3) {
                case 0:
                    if (!mutated.empty())
                        mutated[pos] = c;
                    break;
                case 1: mutated.insert(pos, 1, c); break;
                default:
                    if (!mutated.empty())
                        mutated.erase(pos, 1);
                    break;
                }
            }
            Json out;
            std::string err;
            if (!Json::parse(mutated, &out, &err)) {
                EXPECT_FALSE(err.empty()) << mutated;
                ++rejected;
                continue;
            }
            ++accepted;
            const std::string canon = out.dump();
            Json again;
            ASSERT_TRUE(Json::parse(canon, &again, &err))
                << canon << ": " << err;
            EXPECT_EQ(again.dump(), canon) << "from: " << mutated;
        }
    }
    // The mutation engine must exercise both sides of the parser.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(ServeJsonFuzz, DeepNestingIsRejectedNotOverflowed)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse(deep, &out, &err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

/** Every field mutation @p base's table allows, one field at a time
 *  (list fields: each field of the first entry, then one more entry),
 *  labelled with the field's wire name. */
template <class S>
std::vector<std::pair<std::string, S>>
mutations(const S &base)
{
    std::vector<std::pair<std::string, S>> out;
    forEachField(S::fields(), [&](const auto &f) {
        S s = base;
        auto &v = s.*(f.member);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_enum_v<T>) {
            v = static_cast<T>((size_t(v) + 1) % f.names.size());
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = v == f.names[0] ? f.names[1] : f.names[0];
        } else if constexpr (std::is_integral_v<T>) {
            v += 1;
        } else {
            for (const auto &[name, entry] : mutations(v.front())) {
                S t = base;
                (t.*(f.member)).front() = entry;
                out.push_back({std::string(f.name) + "[0]." + name, t});
            }
            v.push_back(v.front());
        }
        out.push_back({f.name, s});
    });
    return out;
}

/** One family's key plus the model-config member it sets. */
template <class M>
void
checkEveryField(const serve::ModelKey &base, M member, size_t expected)
{
    const std::string bytes = serve::modelKeyToJson(base).dump();
    const auto muts = mutations(base.*member);
    EXPECT_EQ(muts.size(), expected) << bytes;
    for (const auto &[name, cfg] : muts) {
        serve::ModelKey key = base;
        key.*member = cfg;
        EXPECT_TRUE(key != base) << name;
        EXPECT_NE(key.hash(), base.hash()) << name;
        const Json json = serve::modelKeyToJson(key);
        EXPECT_NE(json.dump(), bytes) << name;
        serve::ModelKey back;
        std::string err;
        ASSERT_TRUE(serve::modelKeyFromJson(key.kind, reparse(json), &back,
                                            &err))
            << name << ": " << err;
        EXPECT_TRUE(back == key) << name;
    }
}

TEST(ServeModels, ModelKeyJsonRoundTrip)
{
    // The wire bytes of releases before the field tables: result-cache
    // keys are built from exactly these strings, so caches written then
    // must stay valid. Journal salts hash them.
    const struct {
        serve::ModelKey key;
        serve::SweepAxis axis;
        const char *json;
        const char *point; ///< the resolved config at axis value 1
        const char *salt;  ///< eqsweep's journal salt (empty tag)
        const char *taggedSalt; ///< the journal salt under tag "fig "
    } cases[] = {
        {serve::defaultKey(serve::ModelKind::Systolic),
         {"ah", {2, 8}},
         R"({"ah":4,"aw":4,"df":"WS","c":1,"h":8,"w":8,"n":1,"fh":2,)"
         R"("fw":2,"elem_bytes":4})",
         R"({"ah":8,"aw":4,"df":"WS","c":1,"h":8,"w":8,"n":1,"fh":2,)"
         R"("fw":2,"elem_bytes":4})",
         "88d36b704ec3c3c3", "be574007cf845d33"},
        {serve::defaultKey(serve::ModelKind::Soc),
         {"tiles", {1, 3}},
         R"({"accels":[{"ah":2,"aw":2,"df":"WS","link_bw":8},)"
         R"({"ah":2,"aw":2,"df":"WS","link_bw":8}],"bus_bw":8,)"
         R"("bus_kind":"Streaming","sram_banks":4,"dmas":1,"rounds":2,)"
         R"("steps":4,"elem_bytes":4})",
         R"({"accels":[{"ah":2,"aw":2,"df":"WS","link_bw":8},)"
         R"({"ah":2,"aw":2,"df":"OS","link_bw":8},)"
         R"({"ah":2,"aw":2,"df":"WS","link_bw":8}],"bus_bw":8,)"
         R"("bus_kind":"Streaming","sram_banks":4,"dmas":1,"rounds":2,)"
         R"("steps":4,"elem_bytes":4})",
         "264253bda3b18d05", "07e3448b1ba54591"},
        {serve::defaultKey(serve::ModelKind::Pipeline),
         {"stages", {2, 5}},
         R"({"stages":4,"batches":6,"tile_elems":16,"compute":2,)"
         R"("dma_bw":8,"hop_bw":4,"elem_bytes":4})",
         R"({"stages":5,"batches":6,"tile_elems":16,"compute":2,)"
         R"("dma_bw":8,"hop_bw":4,"elem_bytes":4})",
         "f5f9ac61f4ff8a48", "0e229e405bf6eccc"},
        {serve::ModelKey::socKey(soc::SocConfig::dualSharedBus()),
         {"bus_bw", {16, 32}},
         R"({"accels":[{"ah":2,"aw":2,"df":"WS","link_bw":8},)"
         R"({"ah":2,"aw":2,"df":"WS","link_bw":8}],"bus_bw":8,)"
         R"("bus_kind":"Streaming","sram_banks":4,"dmas":1,"rounds":2,)"
         R"("steps":4,"elem_bytes":4})",
         R"({"accels":[{"ah":2,"aw":2,"df":"WS","link_bw":8},)"
         R"({"ah":2,"aw":2,"df":"WS","link_bw":8}],"bus_bw":32,)"
         R"("bus_kind":"Streaming","sram_banks":4,"dmas":1,"rounds":2,)"
         R"("steps":4,"elem_bytes":4})",
         "21bef5be6ad2a031", "d4d514501a754f6d"},
        {serve::ModelKey::socKey(soc::SocConfig::heteroStarved()),
         {"sram_banks", {1, 8}},
         R"({"accels":[{"ah":2,"aw":3,"df":"WS","link_bw":8},)"
         R"({"ah":3,"aw":2,"df":"OS","link_bw":2}],"bus_bw":4,)"
         R"("bus_kind":"Window","sram_banks":2,"dmas":1,"rounds":2,)"
         R"("steps":3,"elem_bytes":4})",
         R"({"accels":[{"ah":2,"aw":3,"df":"WS","link_bw":8},)"
         R"({"ah":3,"aw":2,"df":"OS","link_bw":2}],"bus_bw":4,)"
         R"("bus_kind":"Window","sram_banks":8,"dmas":1,"rounds":2,)"
         R"("steps":3,"elem_bytes":4})",
         "d15970182938d69e", "ab4b7e2fd13ff72a"},
    };
    for (const auto &c : cases) {
        const std::string model = serve::modelName(c.key.kind);
        Json cfg = serve::modelKeyToJson(c.key);
        EXPECT_EQ(cfg.dump(), c.json) << model;

        serve::SweepSpec spec;
        spec.base = c.key;
        spec.axes.push_back(c.axis);
        std::string err;
        ASSERT_TRUE(spec.validate(&err)) << err;
        // eqsweep's content keys: an empty tag, so exactly these bytes;
        // a harness's tag only prefixes them.
        const sweep::Grid grid = spec.grid();
        const std::vector<sweep::Point> points = grid.points();
        const serve::ModelKey at1 = spec.keyAt(points.at(1));
        EXPECT_EQ(serve::contentKey("", at1), model + " " + c.point);
        EXPECT_EQ(serve::contentKey("fig ", at1),
                  "fig " + model + " " + c.point);
        // The journal salt is the FNV-1a of every point's content key
        // (then its length) in dense order.
        auto saltOf = [&](const std::string &tag) {
            uint64_t h = kFnvOffset;
            for (const sweep::Point &p : points) {
                const std::string key = serve::contentKey(tag, spec.keyAt(p));
                h = fnv1a(fnv1aBytes(h, key), key.size());
            }
            return hexU64(h);
        };
        serve::SweepRows tagged;
        tagged.tag = "fig ";
        EXPECT_EQ(serve::sweepIdentity(spec, grid, {}, {}).salt, c.salt);
        EXPECT_EQ(serve::sweepIdentity(spec, grid, tagged, {}).salt,
                  c.taggedSalt);
        EXPECT_EQ(saltOf(""), c.salt);
        EXPECT_EQ(saltOf("fig "), c.taggedSalt);

        serve::ModelKey back;
        ASSERT_TRUE(serve::modelKeyFromJson(c.key.kind, reparse(cfg), &back,
                                            &err))
            << err;
        EXPECT_TRUE(back == c.key) << model;
        EXPECT_EQ(back.hash(), c.key.hash());
    }
}

TEST(ServeModels, EveryTableFieldShowsInIdentityAndWireBytes)
{
    using serve::ModelKey;
    using serve::ModelKind;
    // 10 systolic fields; soc: 8 fields + 4 per accel entry; 7 pipeline.
    checkEveryField(serve::defaultKey(ModelKind::Systolic),
                    &ModelKey::systolic, 10);
    checkEveryField(serve::defaultKey(ModelKind::Soc), &ModelKey::soc, 12);
    checkEveryField(ModelKey::socKey(soc::SocConfig::heteroStarved()),
                    &ModelKey::soc, 12);
    checkEveryField(serve::defaultKey(ModelKind::Pipeline),
                    &ModelKey::pipeline, 7);
}

TEST(ServeModels, ModelKeyJsonOverridesFields)
{
    Json cfg = Json::object();
    cfg.set("ah", 8);
    cfg.set("df", "OS");
    serve::ModelKey key;
    std::string err;
    ASSERT_TRUE(serve::modelKeyFromJson(serve::ModelKind::Systolic, cfg,
                                        &key, &err))
        << err;
    EXPECT_EQ(key.systolic.ah, 8);
    EXPECT_EQ(key.systolic.dataflow, scalesim::Dataflow::OS);
    // Untouched fields keep the family defaults.
    EXPECT_EQ(key.systolic.aw,
              serve::defaultKey(serve::ModelKind::Systolic).systolic.aw);
}

TEST(ServeModels, ModelKeyJsonRejectsUnknownFields)
{
    const struct {
        serve::ModelKind kind;
        const char *config;
        const char *error;
    } cases[] = {
        // A typo must not silently simulate the default.
        {serve::ModelKind::Systolic, R"({"ahh":8})",
         "unknown systolic config field 'ahh'"},
        {serve::ModelKind::Soc, R"({"accels":[{"ahh":1}]})",
         "unknown accel field 'ahh'"},
        {serve::ModelKind::Pipeline, R"({"stages":2.5})",
         "config field 'stages' must be an integer"},
        {serve::ModelKind::Systolic, R"({"df":"XS"})",
         R"(config field 'df' must be "WS", "IS" or "OS")"},
        {serve::ModelKind::Soc, R"({"bus_kind":"Ring"})",
         R"(config field 'bus_kind' must be "Streaming" or "Window")"},
        {serve::ModelKind::Soc, R"({"accels":[1]})",
         "accel entries must be objects"},
        // Out of the declared range, including values an int would
        // silently truncate (2^32 + 2 used to answer as ah = 2).
        {serve::ModelKind::Systolic, R"({"ah":4294967298})",
         "config field 'ah' must be in [1, 2147483647]"},
        {serve::ModelKind::Soc, R"({"sram_banks":0})",
         "config field 'sram_banks' must be in [1, 4294967295]"},
        {serve::ModelKind::Soc, R"({"accels":[{"link_bw":-1}]})",
         "config field 'link_bw' must be in [0, 9223372036854775807]"},
        {serve::ModelKind::Soc, R"({"accels":[]})",
         "config field 'accels' needs at least 1 entry"},
        {serve::ModelKind::Systolic, R"({"h":1,"w":1})",
         "config field 'fh' must not exceed 'h'"},
        {serve::ModelKind::Systolic, R"({"w":1})",
         "config field 'fw' must not exceed 'w'"},
    };
    for (const auto &c : cases) {
        Json cfg;
        std::string err;
        ASSERT_TRUE(Json::parse(c.config, &cfg, &err)) << err;
        serve::ModelKey key;
        EXPECT_FALSE(serve::modelKeyFromJson(c.kind, cfg, &key, &err))
            << c.config;
        EXPECT_EQ(err, c.error) << c.config;
    }
}

TEST(ServeModels, ApplyAxisChangesKeyIdentity)
{
    serve::ModelKey a = serve::defaultKey(serve::ModelKind::Systolic);
    serve::ModelKey b = a;
    std::string err;
    ASSERT_TRUE(serve::applyAxis(&b, "ah", 8, &err)) << err;
    EXPECT_TRUE(a != b);
    EXPECT_NE(a.hash(), b.hash());

    EXPECT_FALSE(serve::applyAxis(&b, "bogus_axis", 1, &err));
    EXPECT_NE(err.find("bogus_axis"), std::string::npos) << err;

    // Axes take their field's range: no truncation, no zero-sized array.
    EXPECT_FALSE(serve::applyAxis(&b, "aw", 0, &err));
    EXPECT_EQ(err, "config field 'aw' must be in [1, 2147483647]");
    EXPECT_FALSE(serve::applyAxis(&b, "hw", int64_t(1) << 32, &err));
    EXPECT_NE(err.find("'h'"), std::string::npos) << err;
    serve::ModelKey p = serve::defaultKey(serve::ModelKind::Pipeline);
    EXPECT_FALSE(serve::applyAxis(&p, "stages", 0, &err));
    EXPECT_NE(err.find("stages"), std::string::npos) << err;
}

TEST(ServeModels, ParseAxisTable)
{
    struct Case {
        const char *text;
        bool ok;
        std::vector<int64_t> values;
    };
    const Case cases[] = {
        {"n=1,2,-3", true, {1, 2, -3}},
        {"n=9223372036854775807", true, {INT64_MAX}},
        {"n=99999999999999999999", false, {}}, // overflows int64
        {"n=1,,2", false, {}},                 // empty item
        {"n=1,2,", false, {}},                 // trailing comma
        {"n=", false, {}},                     // no values
        {"=1", false, {}},                     // missing name
        {"n", false, {}},                      // no '='
        {"n=1x", false, {}},                   // trailing junk
        {"n= 1", false, {}},                   // leading space
    };
    for (const Case &c : cases) {
        serve::SweepAxis axis;
        EXPECT_EQ(serve::parseAxis(c.text, &axis), c.ok) << c.text;
        if (c.ok) {
            EXPECT_EQ(axis.name, "n") << c.text;
            EXPECT_EQ(axis.values, c.values) << c.text;
        }
    }
}

TEST(ServeModels, SweepValidateChecksEveryResolvedPoint)
{
    // Each value is in range on its own; only the point h=1, f=2
    // breaks fh <= h, which keyAt would otherwise hand a generator.
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"h", {8, 1}});
    spec.axes.push_back({"f", {1, 2}});
    std::string err;
    EXPECT_FALSE(spec.validate(&err));
    EXPECT_NE(err.find("'fh'"), std::string::npos) << err;

    spec.axes.back().values = {1};
    EXPECT_TRUE(spec.validate(&err)) << err;
}

} // namespace
