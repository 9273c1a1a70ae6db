#include "anf/anf_parser.h"

#include <cctype>
#include <limits>
#include <sstream>

namespace bosphorus::anf {

namespace {

/// Single-polynomial recursive-descent parser over a string view.
class PolyParser {
public:
    explicit PolyParser(const std::string& text) : text_(text) {}

    Polynomial parse() {
        Polynomial p = parse_poly();
        skip_ws();
        if (pos_ != text_.size()) {
            throw ParseError("trailing characters at position " +
                             std::to_string(pos_) + " in: " + text_);
        }
        return p;
    }

private:
    Polynomial parse_poly() {
        Polynomial acc = parse_term();
        for (;;) {
            skip_ws();
            if (!eat('+')) break;
            acc += parse_term();
        }
        return acc;
    }

    Polynomial parse_term() {
        Polynomial acc = parse_factor();
        for (;;) {
            skip_ws();
            if (!eat('*')) break;
            acc = acc * parse_factor();
        }
        return acc;
    }

    Polynomial parse_factor() {
        skip_ws();
        if (pos_ >= text_.size())
            throw ParseError("unexpected end of polynomial: " + text_);
        const char c = text_[pos_];
        if (c == '0') {
            ++pos_;
            return Polynomial();
        }
        if (c == '1') {
            ++pos_;
            return Polynomial::constant(true);
        }
        if (c == 'x' || c == 'X') {
            ++pos_;
            bool paren = eat('(');
            const size_t start = pos_;
            while (pos_ < text_.size() && std::isdigit((unsigned char)text_[pos_]))
                ++pos_;
            if (pos_ == start)
                throw ParseError("expected variable index in: " + text_);
            unsigned long idx = 0;
            try {
                idx = std::stoul(text_.substr(start, pos_ - start));
            } catch (const std::out_of_range&) {
                throw ParseError("variable index out of range in: " + text_);
            }
            if (paren && !eat(')'))
                throw ParseError("expected ')' in: " + text_);
            if (idx == 0)
                throw ParseError("variable indices are 1-based in: " + text_);
            if (idx - 1 > std::numeric_limits<Var>::max())
                throw ParseError("variable index out of range in: " + text_);
            return Polynomial::variable(static_cast<Var>(idx - 1));
        }
        throw ParseError(std::string("unexpected character '") + c +
                         "' in: " + text_);
    }

    void skip_ws() {
        while (pos_ < text_.size() && std::isspace((unsigned char)text_[pos_]))
            ++pos_;
    }

    bool eat(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

}  // namespace

Polynomial parse_polynomial(const std::string& text) {
    return PolyParser(text).parse();
}

ParsedSystem parse_system(std::istream& in) {
    ParsedSystem sys;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        if (line.empty()) continue;
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        if (line[first] == 'c' || line[first] == '#') continue;
        Polynomial p;
        try {
            p = parse_polynomial(line);
        } catch (const ParseError& e) {
            throw ParseError("line " + std::to_string(line_no) + ": " +
                             e.what());
        }
        for (Var v : p.variables())
            sys.num_vars = std::max(sys.num_vars, static_cast<size_t>(v) + 1);
        sys.polynomials.push_back(std::move(p));
    }
    return sys;
}

ParsedSystem parse_system_from_string(const std::string& text) {
    std::istringstream in(text);
    return parse_system(in);
}

Result<Polynomial> try_parse_polynomial(const std::string& text) {
    try {
        return parse_polynomial(text);
    } catch (const ParseError& e) {
        return Status::parse_error(e.what());
    }
}

Result<ParsedSystem> try_parse_system(std::istream& in) {
    try {
        return parse_system(in);
    } catch (const ParseError& e) {
        return Status::parse_error(e.what());
    }
}

Result<ParsedSystem> try_parse_system_from_string(const std::string& text) {
    std::istringstream in(text);
    return try_parse_system(in);
}

void write_system(std::ostream& out, const std::vector<Polynomial>& polys) {
    // Render the whole system into one buffer and write it once.
    std::string text;
    for (const auto& p : polys) {
        p.append_to(text);
        text += '\n';
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace bosphorus::anf
