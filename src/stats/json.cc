#include "stats/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace udp {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Nesting bound: the formats nest three deep, and recursion on hostile
 *  input ("[[[[...") must not exhaust the stack. */
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    explicit Parser(std::string_view text) : s(text) {}

    bool
    document(JsonValue* out)
    {
        skipWs();
        if (!value(out, 0)) {
            return false;
        }
        skipWs();
        return pos == s.size() || fail("trailing bytes after the value");
    }

    std::string err;

  private:
    std::string_view s;
    std::size_t pos = 0;
    std::string lastKey;

    bool
    fail(const char* what)
    {
        err = "byte " + std::to_string(pos) + ": " + what;
        if (!lastKey.empty()) {
            err += " (after key \"" + lastKey + "\")";
        }
        return false;
    }

    bool at(char c) const { return pos < s.size() && s[pos] == c; }

    bool
    atDigit() const
    {
        return pos < s.size() && s[pos] >= '0' && s[pos] <= '9';
    }

    void
    skipWs()
    {
        while (at(' ') || at('\t') || at('\n') || at('\r')) {
            ++pos;
        }
    }

    bool
    value(JsonValue* v, int depth)
    {
        if (depth > kMaxDepth) {
            return fail("nesting too deep");
        }
        std::size_t start = pos;
        bool ok;
        if (at('{')) {
            v->kind = JsonValue::Kind::Object;
            ok = container(v, '}', depth);
        } else if (at('[')) {
            v->kind = JsonValue::Kind::Array;
            ok = container(v, ']', depth);
        } else if (at('"')) {
            v->kind = JsonValue::Kind::String;
            ok = string(&v->text);
        } else if (at('-') || atDigit()) {
            v->kind = JsonValue::Kind::Number;
            ok = number();
        } else {
            ok = fail("expected a value");
        }
        v->raw = s.substr(start, pos - start);
        return ok;
    }

    /**
     * Object or array body; the opening bracket is at pos. Errors name
     * the innermost key: the member being read, else the container's.
     */
    bool
    container(JsonValue* v, char close, int depth)
    {
        const bool object = close == '}';
        const std::string outer = lastKey;
        ++pos;
        skipWs();
        if (at(close)) {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (object) {
                std::string key;
                if (!at('"')) {
                    return fail("expected a quoted key");
                }
                if (!string(&key)) {
                    return false;
                }
                lastKey = key;
                if (std::find(v->keys.begin(), v->keys.end(), key) !=
                    v->keys.end()) {
                    return fail("duplicate key");
                }
                v->keys.push_back(std::move(key));
                skipWs();
                if (!at(':')) {
                    return fail("expected ':'");
                }
                ++pos;
                skipWs();
            }
            v->items.emplace_back();
            if (!value(&v->items.back(), depth + 1)) {
                return false;
            }
            lastKey = object ? v->keys.back() : outer;
            skipWs();
            if (at(',')) {
                ++pos;
            } else if (at(close)) {
                ++pos;
                return true;
            } else {
                return fail(object ? "expected ',' or '}'"
                                   : "expected ',' or ']'");
            }
        }
    }

    /** Decodes the string whose opening quote is at pos. */
    bool
    string(std::string* out)
    {
        out->clear();
        ++pos;
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"') {
                return true;
            }
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos >= s.size()) {
                break;
            }
            switch (s[pos++]) {
            case '"': *out += '"'; break;
            case '\\': *out += '\\'; break;
            case '/': *out += '/'; break;
            case 'n': *out += '\n'; break;
            case 'r': *out += '\r'; break;
            case 't': *out += '\t'; break;
            case 'u': {
                unsigned v = 0;
                const char* hex = s.data() + pos;
                if (s.size() - pos < 4 ||
                    std::from_chars(hex, hex + 4, v, 16).ptr != hex + 4) {
                    return fail("bad \\u escape");
                }
                pos += 4;
                // jsonEscape only emits \u00xx for control bytes.
                *out += static_cast<char>(v & 0xFF);
                break;
            }
            default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number()
    {
        auto digits = [this] {
            if (!atDigit()) {
                return false;
            }
            while (atDigit()) {
                ++pos;
            }
            return true;
        };
        if (at('-')) {
            ++pos;
        }
        if (at('0')) {
            ++pos;
        } else if (!digits()) {
            return fail("bad number");
        }
        if (at('.')) {
            ++pos;
            if (!digits()) {
                return fail("bad number");
            }
        }
        if (at('e') || at('E')) {
            ++pos;
            if (at('+') || at('-')) {
                ++pos;
            }
            if (!digits()) {
                return fail("bad number");
            }
        }
        return true;
    }
};

} // namespace

bool
parseJson(std::string_view text, JsonValue* out, std::string* err)
{
    Parser p(text);
    JsonValue v;
    if (!p.document(&v)) {
        if (err) {
            *err = p.err;
        }
        return false;
    }
    *out = std::move(v);
    return true;
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object) {
        return nullptr;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == key) {
            return &items[i];
        }
    }
    return nullptr;
}

bool
JsonValue::as(std::string* out) const
{
    if (kind != Kind::String) {
        return false;
    }
    *out = text;
    return true;
}

namespace {

/** The whole raw token as a T; a sign, fraction or exponent fails an
 *  unsigned parse, and so does a value out of T's range. */
template <class T>
bool
numberAs(const JsonValue& v, T* out)
{
    T parsed{};
    const char* end = v.raw.data() + v.raw.size();
    if (v.kind != JsonValue::Kind::Number) {
        return false;
    }
    std::from_chars_result res = std::from_chars(v.raw.data(), end, parsed);
    if (res.ec != std::errc{} || res.ptr != end) {
        return false;
    }
    *out = parsed;
    return true;
}

} // namespace

bool
JsonValue::as(std::uint64_t* out) const
{
    return numberAs(*this, out);
}

bool
JsonValue::as(double* out) const
{
    return numberAs(*this, out);
}

} // namespace udp
