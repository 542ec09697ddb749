/**
 * @file
 * The one JSON reader (and the string escaper its writers share).
 *
 * Every artifact the harness re-reads goes through parseJson(): Report
 * lines (stats/sink.h), checkpoint manifest lines (sim/manifest.h), sweep
 * spec files (sim/sweepd.h) and the status surface (obs/status.h). The
 * reader is strict and has no options: one value per text, whitespace
 * between tokens, no trailing bytes, no trailing commas, no duplicate
 * keys, numbers in RFC 8259 form. It reads the subset of JSON those
 * formats use: objects, arrays, strings and numbers, but not the
 * literals true, false and null. Each format then applies its own key
 * policy (a Report rejects unknown keys; the others ignore them).
 */

#ifndef UDP_STATS_JSON_H
#define UDP_STATS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace udp {

/** JSON string escaping (quotes, backslash, control characters); the
 *  inverse is the reader's string decoding. */
std::string jsonEscape(const std::string& s);

/**
 * One parsed JSON value: a node of a small tree over the parsed text.
 * Every node keeps the exact bytes it was parsed from (raw), so a nested
 * value can be passed through verbatim; raw views point into the text
 * given to parseJson(), which must outlive the tree.
 */
struct JsonValue
{
    enum class Kind { Object, Array, String, Number };

    Kind kind = Kind::Number;
    std::string_view raw;
    /** Decoded contents of a String. */
    std::string text;
    /** Object member names, parallel to items (source order). */
    std::vector<std::string> keys;
    /** Array elements, or Object member values. */
    std::vector<JsonValue> items;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** The member named @p key of an Object, else nullptr. */
    const JsonValue* find(std::string_view key) const;

    /** Converts this value: a String's decoded text; a Number whose
     *  whole token is a decimal integer in uint64 range; a Number in
     *  double range (std::from_chars, so a value written with
     *  std::to_chars reads back bit-exactly). False when mistyped. */
    bool as(std::string* out) const;
    bool as(std::uint64_t* out) const;
    bool as(double* out) const;

    /** find(@p key) and convert it; false when absent or mistyped. */
    template <class T>
    bool
    get(std::string_view key, T* out) const
    {
        const JsonValue* v = find(key);
        return v != nullptr && v->as(out);
    }

    /** get(), except that an absent member is fine (@p out untouched). */
    template <class T>
    bool
    getOptional(std::string_view key, T* out) const
    {
        const JsonValue* v = find(key);
        return v == nullptr || v->as(out);
    }
};

/**
 * Parses @p text, which must hold exactly one JSON value (whitespace
 * around it allowed). Returns false on malformed input, with a message
 * naming the byte offset and the last key read in @p err when non-null.
 */
bool parseJson(std::string_view text, JsonValue* out,
               std::string* err = nullptr);

} // namespace udp

#endif // UDP_STATS_JSON_H
