#include "ir/parser.hh"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>

#include "base/logging.hh"

namespace eq {
namespace ir {

namespace {

/** Token kinds for the generic IR grammar. */
enum class Tok {
    Eof,
    Ident,     ///< bare identifier (attr names, type keywords)
    Number,    ///< integer or float literal
    String,    ///< double-quoted
    Percent,   ///< %name
    Bang,      ///< !dialect.type
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Less,
    Greater,
    Comma,
    Colon,
    Equal,
    Arrow,     ///< ->
    Hash,      ///< #
    Caret,     ///< ^
};

struct Token {
    Tok kind = Tok::Eof;
    std::string text;
    size_t pos = 0;
};

/** Hand-rolled lexer over the source buffer. */
class Lexer {
  public:
    explicit Lexer(const std::string &src) : _src(src) { advance(); }

    const Token &cur() const { return _cur; }

    void
    advance()
    {
        skipWhitespace();
        _cur.pos = _pos;
        if (_pos >= _src.size()) {
            _cur.kind = Tok::Eof;
            _cur.text.clear();
            return;
        }
        char c = _src[_pos];
        switch (c) {
          case '(':
            single(Tok::LParen);
            return;
          case ')':
            single(Tok::RParen);
            return;
          case '{':
            single(Tok::LBrace);
            return;
          case '}':
            single(Tok::RBrace);
            return;
          case '[':
            single(Tok::LBracket);
            return;
          case ']':
            single(Tok::RBracket);
            return;
          case '<':
            single(Tok::Less);
            return;
          case '>':
            single(Tok::Greater);
            return;
          case ',':
            single(Tok::Comma);
            return;
          case ':':
            single(Tok::Colon);
            return;
          case '=':
            single(Tok::Equal);
            return;
          case '#':
            single(Tok::Hash);
            return;
          case '^':
            single(Tok::Caret);
            return;
          default:
            break;
        }
        if (c == '-' && _pos + 1 < _src.size() && _src[_pos + 1] == '>') {
            _cur.kind = Tok::Arrow;
            _cur.text = "->";
            _pos += 2;
            return;
        }
        if (c == '%') {
            ++_pos;
            _cur.kind = Tok::Percent;
            _cur.text = lexWord();
            return;
        }
        if (c == '!') {
            ++_pos;
            _cur.kind = Tok::Bang;
            _cur.text = lexWord();
            return;
        }
        if (c == '"') {
            ++_pos;
            std::string text;
            while (_pos < _src.size() && _src[_pos] != '"') {
                if (_src[_pos] == '\\' && _pos + 1 < _src.size()) {
                    ++_pos;
                    char e = _src[_pos];
                    if (e == 'n')
                        text.push_back('\n');
                    else if (e == 't')
                        text.push_back('\t');
                    else
                        text.push_back(e);
                } else {
                    text.push_back(_src[_pos]);
                }
                ++_pos;
            }
            if (_pos < _src.size())
                ++_pos; // closing quote
            _cur.kind = Tok::String;
            _cur.text = std::move(text);
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '-' && _pos + 1 < _src.size() &&
             std::isdigit(static_cast<unsigned char>(_src[_pos + 1])))) {
            std::string text;
            if (c == '-') {
                text.push_back('-');
                ++_pos;
            }
            while (_pos < _src.size() &&
                   (std::isdigit(static_cast<unsigned char>(_src[_pos])) ||
                    _src[_pos] == '.' || _src[_pos] == 'e' ||
                    ((_src[_pos] == '-' || _src[_pos] == '+') &&
                     _pos > 0 && _src[_pos - 1] == 'e'))) {
                text.push_back(_src[_pos]);
                ++_pos;
            }
            _cur.kind = Tok::Number;
            _cur.text = std::move(text);
            return;
        }
        // Bare identifier (letters, digits, '.', '_').
        _cur.kind = Tok::Ident;
        _cur.text = lexWord();
        if (_cur.text.empty()) {
            // Unknown character: consume it to guarantee progress.
            _cur.text.push_back(c);
            ++_pos;
        }
    }

  private:
    void
    single(Tok k)
    {
        _cur.kind = k;
        _cur.text = _src[_pos];
        ++_pos;
    }

    std::string
    lexWord()
    {
        std::string text;
        while (_pos < _src.size()) {
            char c = _src[_pos];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '_') {
                text.push_back(c);
                ++_pos;
            } else {
                break;
            }
        }
        return text;
    }

    void
    skipWhitespace()
    {
        while (_pos < _src.size()) {
            char c = _src[_pos];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++_pos;
            } else if (c == '/' && _pos + 1 < _src.size() &&
                       _src[_pos + 1] == '/') {
                while (_pos < _src.size() && _src[_pos] != '\n')
                    ++_pos;
            } else {
                break;
            }
        }
    }

    const std::string &_src;
    size_t _pos = 0;
    Token _cur;
};

/** Recursive-descent parser for the generic format. */
class Parser {
  public:
    Parser(Context &ctx, const std::string &src) : _ctx(ctx), _lex(src) {}

    ParseResult
    parseTopLevel()
    {
        ParseResult result;
        OwningOpRef op(parseOp(nullptr));
        if (!_error.empty()) {
            result.error = _error;
            return result;
        }
        if (_lex.cur().kind != Tok::Eof) {
            result.error = "trailing input after top-level op";
            return result;
        }
        result.op = std::move(op);
        return result;
    }

  private:
    /** Parse one operation; insert into @p block if non-null. */
    Operation *
    parseOp(Block *block)
    {
        // Optional results: %id[:count] =
        std::string result_name;
        unsigned num_results = 0;
        if (_lex.cur().kind == Tok::Percent) {
            result_name = _lex.cur().text;
            _lex.advance();
            num_results = 1;
            if (_lex.cur().kind == Tok::Colon) {
                _lex.advance();
                num_results = static_cast<unsigned>(parseInteger());
            }
            if (!expect(Tok::Equal, "'=' after result list"))
                return nullptr;
        }

        if (_lex.cur().kind != Tok::String) {
            error("expected quoted op name");
            return nullptr;
        }
        std::string op_name = _lex.cur().text;
        _lex.advance();

        // Operand list.
        if (!expect(Tok::LParen, "'(' before operand list"))
            return nullptr;
        std::vector<std::string> operand_names;
        while (_lex.cur().kind == Tok::Percent) {
            std::string name = _lex.cur().text;
            _lex.advance();
            if (_lex.cur().kind == Tok::Hash) {
                _lex.advance();
                name += "#" + _lex.cur().text;
                _lex.advance();
            }
            operand_names.push_back(std::move(name));
            if (_lex.cur().kind == Tok::Comma)
                _lex.advance();
        }
        if (!expect(Tok::RParen, "')' after operand list"))
            return nullptr;

        // Optional region list: ({ ... }, { ... })
        bool has_regions = false;
        // Each region is parsed into a holder op's region, since the op
        // itself can be made only once its types are known.
        std::vector<OwningOpRef> region_holders;
        if (_lex.cur().kind == Tok::LParen) {
            has_regions = true;
            _lex.advance();
            while (_lex.cur().kind == Tok::LBrace) {
                _lex.advance();
                OwningOpRef holder(
                    Operation::create(_ctx, op_name, {}, {}, {}, 1));
                parseBlockBody(holder->region(0).addBlock());
                if (!_error.empty())
                    return nullptr;
                if (!expect(Tok::RBrace, "'}' closing region"))
                    return nullptr;
                region_holders.push_back(std::move(holder));
                if (_lex.cur().kind == Tok::Comma)
                    _lex.advance();
            }
            if (!expect(Tok::RParen, "')' closing region list"))
                return nullptr;
        }

        // Optional attribute dict.
        AttrDict attrs;
        if (_lex.cur().kind == Tok::LBrace) {
            _lex.advance();
            while (_lex.cur().kind == Tok::Ident) {
                std::string attr_name = _lex.cur().text;
                _lex.advance();
                Attribute value = Attribute::unit();
                if (_lex.cur().kind == Tok::Equal) {
                    _lex.advance();
                    value = parseAttr();
                    if (!_error.empty())
                        return nullptr;
                }
                attrs.set(attr_name, value);
                if (_lex.cur().kind == Tok::Comma)
                    _lex.advance();
            }
            if (!expect(Tok::RBrace, "'}' closing attr dict"))
                return nullptr;
        }

        // Function type: : (types) -> (types)
        if (!expect(Tok::Colon, "':' before function type"))
            return nullptr;
        std::vector<Type> operand_types = parseTypeList();
        if (!_error.empty())
            return nullptr;
        if (!expect(Tok::Arrow, "'->' in function type"))
            return nullptr;
        std::vector<Type> result_types = parseTypeList();
        if (!_error.empty())
            return nullptr;

        if (operand_types.size() != operand_names.size()) {
            error("operand type count mismatch");
            return nullptr;
        }
        if (num_results != result_types.size() &&
            !(num_results == 1 && result_types.size() >= 1)) {
            error("result count mismatch for op '" + op_name + "'");
            return nullptr;
        }

        // Resolve operands.
        std::vector<Value> operands;
        for (size_t i = 0; i < operand_names.size(); ++i) {
            Value v = lookup(operand_names[i]);
            if (!v) {
                error("use of undefined value %" + operand_names[i]);
                return nullptr;
            }
            operands.push_back(v);
        }

        Operation *op = Operation::create(_ctx, op_name, result_types,
                                          operands, attrs,
                                          has_regions
                                              ? region_holders.size()
                                              : 0);
        for (size_t r = 0; r < region_holders.size(); ++r)
            op->region(static_cast<unsigned>(r))
                .takeBody(region_holders[r]->region(0));

        // Register results.
        if (!result_name.empty()) {
            if (op->numResults() == 1) {
                define(result_name, op->result(0));
            } else {
                for (unsigned i = 0; i < op->numResults(); ++i)
                    define(result_name + "#" + std::to_string(i),
                           op->result(i));
            }
        }

        if (block)
            block->push_back(op);
        return op;
    }

    /** Parse block arguments (optional header) and ops until '}'. */
    void
    parseBlockBody(Block *block)
    {
        if (_lex.cur().kind == Tok::Caret) {
            _lex.advance(); // ^
            if (_lex.cur().kind == Tok::Ident)
                _lex.advance(); // bb name
            if (!expect(Tok::LParen, "'(' after block label"))
                return;
            while (_lex.cur().kind == Tok::Percent) {
                std::string name = _lex.cur().text;
                _lex.advance();
                if (!expect(Tok::Colon, "':' after block arg name"))
                    return;
                Type t = parseType();
                if (!_error.empty())
                    return;
                Value arg = block->addArgument(t);
                define(name, arg);
                if (_lex.cur().kind == Tok::Comma)
                    _lex.advance();
            }
            if (!expect(Tok::RParen, "')' after block args"))
                return;
            if (!expect(Tok::Colon, "':' after block header"))
                return;
        }
        while (_lex.cur().kind == Tok::Percent ||
               _lex.cur().kind == Tok::String) {
            parseOp(block);
            if (!_error.empty())
                return;
        }
    }

    /** Parse `(type, type, ...)` or a single type. */
    std::vector<Type>
    parseTypeList()
    {
        std::vector<Type> types;
        if (_lex.cur().kind == Tok::LParen) {
            _lex.advance();
            while (_lex.cur().kind != Tok::RParen &&
                   _lex.cur().kind != Tok::Eof) {
                types.push_back(parseType());
                if (!_error.empty())
                    return types;
                if (_lex.cur().kind == Tok::Comma)
                    _lex.advance();
            }
            expect(Tok::RParen, "')' closing type list");
        } else {
            types.push_back(parseType());
        }
        return types;
    }

    Type
    parseType()
    {
        if (_lex.cur().kind == Tok::Bang) {
            std::string name = _lex.cur().text; // e.g. equeue.event
            _lex.advance();
            if (name == "equeue.event")
                return _ctx.eventType();
            if (name == "equeue.proc")
                return _ctx.procType();
            if (name == "equeue.mem")
                return _ctx.memType();
            if (name == "equeue.dma")
                return _ctx.dmaType();
            if (name == "equeue.comp")
                return _ctx.compType();
            if (name == "equeue.conn")
                return _ctx.connectionType();
            if (name == "equeue.stream")
                return _ctx.streamType();
            if (name == "equeue.any")
                return _ctx.anyType();
            if (name == "equeue.buffer")
                return parseShapedBody(TypeKind::Buffer);
            error("unknown dialect type !" + name);
            return Type();
        }
        if (_lex.cur().kind == Tok::Ident) {
            std::string name = _lex.cur().text;
            if (name == "index") {
                _lex.advance();
                return _ctx.indexType();
            }
            if (name == "none") {
                _lex.advance();
                return _ctx.noneType();
            }
            if (name == "tensor") {
                _lex.advance();
                return parseShapedBody(TypeKind::Tensor);
            }
            if (name == "memref") {
                _lex.advance();
                return parseShapedBody(TypeKind::MemRef);
            }
            if (name.size() >= 2 && (name[0] == 'i' || name[0] == 'f')) {
                bool all_digits = true;
                for (size_t i = 1; i < name.size(); ++i)
                    if (!std::isdigit(static_cast<unsigned char>(name[i])))
                        all_digits = false;
                if (all_digits) {
                    _lex.advance();
                    unsigned width =
                        static_cast<unsigned>(std::stoul(name.substr(1)));
                    return name[0] == 'i' ? _ctx.intType(width)
                                          : _ctx.floatType(width);
                }
            }
        }
        error("expected type, got '" + _lex.cur().text + "'");
        return Type();
    }

    /** Parse `<d1xd2x...xiW>` after a shaped-type keyword. */
    Type
    parseShapedBody(TypeKind kind)
    {
        if (!expect(Tok::Less, "'<' in shaped type"))
            return Type();
        std::vector<int64_t> dims;
        unsigned elem_bits = 32;
        // Dims and the trailing element type are separated by 'x', which
        // the lexer folds into identifier/number tokens; re-split here.
        std::string body;
        while (_lex.cur().kind != Tok::Greater &&
               _lex.cur().kind != Tok::Eof) {
            body += _lex.cur().text;
            _lex.advance();
        }
        expect(Tok::Greater, "'>' closing shaped type");
        // body looks like "4x4xi32" or "i32" (rank 0).
        size_t pos = 0;
        while (pos < body.size()) {
            if (body[pos] == 'i' || body[pos] == 'f') {
                elem_bits = static_cast<unsigned>(
                    std::stoul(body.substr(pos + 1)));
                break;
            }
            size_t x = body.find('x', pos);
            std::string dim = body.substr(pos, x - pos);
            dims.push_back(std::stoll(dim));
            if (x == std::string::npos)
                break;
            pos = x + 1;
        }
        switch (kind) {
          case TypeKind::Tensor:
            return _ctx.tensorType(std::move(dims), elem_bits);
          case TypeKind::MemRef:
            return _ctx.memrefType(std::move(dims), elem_bits);
          case TypeKind::Buffer:
            return _ctx.bufferType(std::move(dims), elem_bits);
          default:
            eq_panic("bad shaped kind");
        }
    }

    Attribute
    parseAttr()
    {
        const Token &t = _lex.cur();
        if (t.kind == Tok::String) {
            std::string s = t.text;
            _lex.advance();
            return Attribute::string(std::move(s));
        }
        if (t.kind == Tok::Number) {
            std::string text = t.text;
            _lex.advance();
            if (text.find('.') != std::string::npos ||
                text.find('e') != std::string::npos)
                return Attribute::floating(std::stod(text));
            return Attribute::integer(std::stoll(text));
        }
        if (t.kind == Tok::LBracket) {
            _lex.advance();
            std::vector<Attribute> elems;
            while (_lex.cur().kind != Tok::RBracket &&
                   _lex.cur().kind != Tok::Eof) {
                elems.push_back(parseAttr());
                if (!_error.empty())
                    return Attribute();
                if (_lex.cur().kind == Tok::Comma)
                    _lex.advance();
            }
            expect(Tok::RBracket, "']' closing array attr");
            return Attribute::array(std::move(elems));
        }
        if (t.kind == Tok::Ident) {
            if (t.text == "true") {
                _lex.advance();
                return Attribute::boolean(true);
            }
            if (t.text == "false") {
                _lex.advance();
                return Attribute::boolean(false);
            }
            if (t.text == "unit") {
                _lex.advance();
                return Attribute::unit();
            }
            if (t.text == "dense") {
                _lex.advance();
                if (!expect(Tok::LBracket, "'[' after dense"))
                    return Attribute();
                std::vector<int64_t> ints;
                while (_lex.cur().kind == Tok::Number) {
                    ints.push_back(std::stoll(_lex.cur().text));
                    _lex.advance();
                    if (_lex.cur().kind == Tok::Comma)
                        _lex.advance();
                }
                expect(Tok::RBracket, "']' closing dense array");
                return Attribute::i64Array(std::move(ints));
            }
            // Otherwise: a type attribute.
            Type ty = parseType();
            if (!_error.empty())
                return Attribute();
            return Attribute::typeRef(ty);
        }
        if (t.kind == Tok::Bang) {
            Type ty = parseType();
            if (!_error.empty())
                return Attribute();
            return Attribute::typeRef(ty);
        }
        error("expected attribute value");
        return Attribute();
    }

    int64_t
    parseInteger()
    {
        if (_lex.cur().kind != Tok::Number) {
            error("expected integer");
            return 0;
        }
        int64_t v = std::stoll(_lex.cur().text);
        _lex.advance();
        return v;
    }

    bool
    expect(Tok kind, const std::string &what)
    {
        if (_lex.cur().kind != kind) {
            error("expected " + what + ", got '" + _lex.cur().text + "'");
            return false;
        }
        _lex.advance();
        return true;
    }

    void
    error(const std::string &msg)
    {
        if (_error.empty()) {
            std::ostringstream os;
            os << msg << " (at byte " << _lex.cur().pos << ")";
            _error = os.str();
        }
    }

    Value
    lookup(const std::string &name) const
    {
        auto it = _values.find(name);
        return it == _values.end() ? Value() : it->second;
    }

    void
    define(const std::string &name, Value v)
    {
        _values[name] = v;
    }

    Context &_ctx;
    Lexer _lex;
    std::map<std::string, Value> _values;
    std::string _error;
};

} // namespace

ParseResult
parseSourceString(Context &ctx, const std::string &source)
{
    Parser parser(ctx, source);
    return parser.parseTopLevel();
}

} // namespace ir
} // namespace eq
