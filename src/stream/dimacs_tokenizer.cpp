#include "stream/dimacs_tokenizer.h"

#include <sys/stat.h>

#include <cctype>

#include "util/fault.h"

namespace bosphorus::stream {

using ::bosphorus::Result;
using ::bosphorus::Status;

// ---- byte sources ----------------------------------------------------------

FileByteSource::FileByteSource(const std::string& path) {
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_) return;
    struct stat st;
    if (::fstat(fileno(f_), &st) == 0 && S_ISREG(st.st_mode))
        size_ = static_cast<uint64_t>(st.st_size);
}

FileByteSource::~FileByteSource() {
    if (f_) std::fclose(f_);
}

size_t FileByteSource::read(char* buf, size_t cap) {
    if (!f_) return 0;
    if (fault::FaultInjector::global().should_fire(
            fault::Site::kIoReadError)) {
        bad_ = true;  // sticky, exactly like a real fread failure
        return 0;
    }
    const size_t n = std::fread(buf, 1, cap, f_);
    if (n < cap && std::ferror(f_)) bad_ = true;
    return n;
}

bool FileByteSource::rewind() {
    if (!f_) return false;
    std::clearerr(f_);
    return std::fseek(f_, 0, SEEK_SET) == 0;
}

size_t IstreamByteSource::read(char* buf, size_t cap) {
    in_.read(buf, static_cast<std::streamsize>(cap));
    return static_cast<size_t>(in_.gcount());
}

bool IstreamByteSource::bad() const { return in_.bad(); }

size_t StringByteSource::read(char* buf, size_t cap) {
    const size_t n = std::min(cap, text_.size() - pos_);
    text_.copy(buf, n, pos_);
    pos_ += n;
    return n;
}

// ---- tokenizer -------------------------------------------------------------

DimacsTokenizer::DimacsTokenizer(ByteSource& src, Config cfg) : src_(src) {
    buf_.resize(std::max<size_t>(cfg.chunk_bytes, 64));
}

void DimacsTokenizer::reset() {
    pos_ = len_ = 0;
    eof_ = false;
    line_ = 1;
    consumed_ = 0;
    max_var_ = 0;
    header_ = {};
    header_seen_ = false;
}

bool DimacsTokenizer::refill() {
    if (eof_) return false;
    pos_ = 0;
    len_ = src_.read(buf_.data(), buf_.size());
    if (len_ == 0) {
        eof_ = true;
        return false;
    }
    return true;
}

int DimacsTokenizer::peek() {
    if (pos_ == len_ && !refill()) return -1;
    return static_cast<unsigned char>(buf_[pos_]);
}

void DimacsTokenizer::advance() {
    if (buf_[pos_] == '\n') ++line_;
    ++pos_;
    ++consumed_;
}

Status DimacsTokenizer::err(const std::string& what) const {
    return Status::parse_error("DIMACS line " + std::to_string(line_) + ": " +
                               what);
}

Result<DimacsTokenizer::Item> DimacsTokenizer::parse_header() {
    advance();  // consume 'p'
    // Expect whitespace, the word "cnf", then two non-negative counts.
    auto skip_blanks = [&]() {
        int c;
        while ((c = peek()) == ' ' || c == '\t' || c == '\r') advance();
        return peek();
    };
    if (skip_blanks() == -1) return err("truncated 'p cnf' header");
    std::string fmt;
    int c;
    while ((c = peek()) != -1 && !std::isspace(c)) {
        fmt.push_back(static_cast<char>(c));
        advance();
    }
    if (fmt != "cnf") return err("expected 'p cnf' header, got 'p " + fmt + "'");

    uint64_t counts[2] = {0, 0};
    for (uint64_t& out : counts) {
        if (skip_blanks() == -1 || !std::isdigit(peek()))
            return err("'p cnf' header needs two non-negative counts");
        uint64_t v = 0;
        while ((c = peek()) != -1 && std::isdigit(c)) {
            v = v * 10 + static_cast<uint64_t>(c - '0');
            if (v > (1ull << 62)) return err("'p cnf' header count overflows");
            advance();
        }
        out = v;
    }
    if (counts[0] > kMaxDimacsVar)
        return err("declared variable count " + std::to_string(counts[0]) +
                   " exceeds the representable maximum " +
                   std::to_string(kMaxDimacsVar));
    // Ignore anything else on the header line (matches common practice).
    while ((c = peek()) != -1 && c != '\n') advance();
    header_.vars = counts[0];
    header_.clauses = counts[1];
    header_seen_ = true;
    return Item::kHeader;
}

Status DimacsTokenizer::parse_literals(std::vector<sat::Lit>& lits) {
    lits.clear();
    for (;;) {
        int c = peek();
        while (c != -1 && std::isspace(c)) {
            advance();
            c = peek();
        }
        if (c == -1) {
            if (src_.bad()) return Status::io_error("read error mid-clause");
            return err("unexpected end of file inside a clause "
                       "(missing terminating 0)");
        }
        bool neg = false;
        if (c == '-') {
            neg = true;
            advance();
            c = peek();
        }
        if (c == -1 || !std::isdigit(c)) {
            std::string got = "end of file";
            if (c != -1) got = {'\'', char(c), '\''};
            return err("expected a literal, got " + got);
        }
        uint64_t v = 0;
        while ((c = peek()) != -1 && std::isdigit(c)) {
            v = v * 10 + static_cast<uint64_t>(c - '0');
            if (v > kMaxDimacsVar)
                return err("literal magnitude exceeds the representable "
                           "maximum " +
                           std::to_string(kMaxDimacsVar));
            advance();
        }
        if (c != -1 && !std::isspace(c))
            return err("malformed literal (unexpected '" +
                       std::string(1, char(c)) + "')");
        if (v == 0) {
            if (neg) return err("'-0' is not a valid literal");
            return Status();  // terminating 0
        }
        if (v > max_var_) max_var_ = v;
        lits.push_back(sat::mk_lit(static_cast<sat::Var>(v - 1), neg));
    }
}

Result<DimacsTokenizer::Item> DimacsTokenizer::next(
    std::vector<sat::Lit>& lits) {
    for (;;) {
        const int c = peek();
        if (c == -1) {
            if (src_.bad()) return Status::io_error("read error");
            if (!header_seen_)
                return Status::parse_error("missing 'p cnf' header");
            return Item::kEof;
        }
        if (std::isspace(c)) {
            advance();
            continue;
        }
        if (c == 'c') {  // comment: skip to end of line (or EOF)
            int d;
            while ((d = peek()) != -1 && d != '\n') advance();
            continue;
        }
        if (c == 'p') {
            if (header_seen_) return err("duplicate 'p cnf' header");
            return parse_header();
        }
        if (c == 'x') {
            if (!header_seen_)
                return err("XOR line before the 'p cnf' header");
            advance();
            if (const Status s = parse_literals(lits); !s.ok()) return s;
            return Item::kXor;
        }
        if (c == '-' || std::isdigit(c)) {
            if (!header_seen_)
                return err("clause before the 'p cnf' header");
            if (const Status s = parse_literals(lits); !s.ok()) return s;
            return Item::kClause;
        }
        return err("unexpected character '" + std::string(1, char(c)) + "'");
    }
}

}  // namespace bosphorus::stream
