// Minimal JSON reader/writer for validating exported traces.
//
// Deliberately tiny: enough of RFC 8259 to parse what trace.cpp emits
// (objects, arrays, strings with the common escapes, numbers, booleans,
// null) and to re-serialise it for round-trip checks. Used by the trace
// unit test and the `cupp_report` tool — not a general-purpose JSON
// library.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cupp::minijson {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v =
        nullptr;

    [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v); }
    [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v); }
    [[nodiscard]] bool is_string() const {
        return std::holds_alternative<std::string>(v);
    }
    [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v); }

    [[nodiscard]] const Object& object() const { return std::get<Object>(v); }
    [[nodiscard]] const Array& array() const { return std::get<Array>(v); }
    [[nodiscard]] const std::string& str() const { return std::get<std::string>(v); }
    [[nodiscard]] double number() const { return std::get<double>(v); }

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const Value* find(const std::string& key) const {
        if (!is_object()) return nullptr;
        const auto it = object().find(key);
        return it == object().end() ? nullptr : &it->second;
    }
};

class parse_error : public std::runtime_error {
public:
    parse_error(const std::string& what, std::size_t offset)
        : std::runtime_error(what + " at offset " + std::to_string(offset)) {}
};

namespace detail {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) throw parse_error("trailing content", pos_);
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    char peek() {
        if (pos_ >= text_.size()) throw parse_error("unexpected end", pos_);
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            throw parse_error(std::string("expected '") + c + "'", pos_);
        }
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    Value parse_value() {
        skip_ws();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Value{parse_string()};
            case 't':
                if (consume_literal("true")) return Value{true};
                throw parse_error("bad literal", pos_);
            case 'f':
                if (consume_literal("false")) return Value{false};
                throw parse_error("bad literal", pos_);
            case 'n':
                if (consume_literal("null")) return Value{nullptr};
                throw parse_error("bad literal", pos_);
            default: return parse_number();
        }
    }

    Value parse_object() {
        expect('{');
        Object obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Value{std::move(obj)};
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value{std::move(obj)};
        }
    }

    Value parse_array() {
        expect('[');
        Array arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Value{std::move(arr)};
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value{std::move(arr)};
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) throw parse_error("unterminated string", pos_);
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) throw parse_error("bad escape", pos_);
            const char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) throw parse_error("bad \\u", pos_);
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            throw parse_error("bad \\u digit", pos_);
                        }
                    }
                    // The tracer only escapes control characters, so a
                    // single byte suffices here.
                    out.push_back(static_cast<char>(code & 0xFF));
                    break;
                }
                default: throw parse_error("unknown escape", pos_);
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) throw parse_error("expected number", pos_);
        try {
            return Value{std::stod(std::string(text_.substr(start, pos_ - start)))};
        } catch (const std::exception&) {
            throw parse_error("malformed number", start);
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

inline void serialize_to(const Value& v, std::string& out) {
    struct Visitor {
        std::string& out;
        void operator()(std::nullptr_t) const { out += "null"; }
        void operator()(bool b) const { out += b ? "true" : "false"; }
        void operator()(double d) const {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", d);
            out += buf;
        }
        void operator()(const std::string& s) const {
            out.push_back('"');
            for (const char c : s) {
                switch (c) {
                    case '"': out += "\\\""; break;
                    case '\\': out += "\\\\"; break;
                    case '\n': out += "\\n"; break;
                    case '\r': out += "\\r"; break;
                    case '\t': out += "\\t"; break;
                    default:
                        if (static_cast<unsigned char>(c) < 0x20) {
                            char buf[8];
                            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                            out += buf;
                        } else {
                            out.push_back(c);
                        }
                }
            }
            out.push_back('"');
        }
        void operator()(const Array& a) const {
            out.push_back('[');
            bool first = true;
            for (const Value& e : a) {
                if (!first) out.push_back(',');
                first = false;
                serialize_to(e, out);
            }
            out.push_back(']');
        }
        void operator()(const Object& o) const {
            out.push_back('{');
            bool first = true;
            for (const auto& [k, e] : o) {
                if (!first) out.push_back(',');
                first = false;
                (*this)(k);
                out.push_back(':');
                serialize_to(e, out);
            }
            out.push_back('}');
        }
    };
    std::visit(Visitor{out}, v.v);
}

}  // namespace detail

/// Parses a complete JSON document; throws parse_error on malformed input.
[[nodiscard]] inline Value parse(std::string_view text) {
    return detail::Parser(text).parse_document();
}

/// Canonical re-serialisation (objects sorted by key) for round-tripping.
[[nodiscard]] inline std::string serialize(const Value& v) {
    std::string out;
    detail::serialize_to(v, out);
    return out;
}

}  // namespace cupp::minijson
