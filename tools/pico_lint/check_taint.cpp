// wire-taint: allocation sizes, loop bounds and indices derived from
// decoded wire bytes must pass a bounds check before use.
//
// Motivating surface: the PIC2 frame decoder and the TraceDump span codec.
// A malicious or corrupt peer controls every decoded field; a decoded count
// or shape that reaches an allocation (or a loop bound, or an index) before
// being range-checked turns one bad frame into an OOM or memory smash.
// The upcoming multi-client serve layer multiplies this surface (ROADMAP).
//
// Lightweight intraprocedural forward data-flow over the token stream:
//   sources:   get<T>(...), take<T>(...), take_string(...), cursor.u32(),
//              connection.recv(), read_all(fd, &x, n) (taints x),
//              decode_*(...) results
//   transfer:  x = e / x += e taints x if e mentions a tainted name
//              (std::min/std::clamp wrappers launder — they impose a bound)
//   sanitize:  a PICO_CHECK / PICO_CHECK_MSG / if(...)-guard that compares
//              the tainted name clears it
//   sinks:     resize/reserve/assign/memcpy/memmove/memset/malloc/calloc,
//              Tensor(...) and Tensor::uninitialized(...) construction,
//              vector/string paren-construction, new T[n], array
//              subscripts, for/while loop bounds
#include "checks.hpp"

namespace pico::lint {

namespace {

const std::set<std::string>& sink_callees() {
  static const std::set<std::string> kSinks = {
      "resize", "reserve", "assign",  "memcpy", "memmove",
      "memset", "malloc",  "calloc",  "realloc", "strncpy",
      "Tensor", "uninitialized",
  };
  return kSinks;
}

const std::set<std::string>& decoder_methods() {
  static const std::set<std::string> kMethods = {
      "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64",
      "read_u8", "read_u16", "read_u32", "read_u64", "recv",
  };
  return kMethods;
}

bool is_comparison(const std::string& t) {
  return t == "<" || t == "<=" || t == ">" || t == ">=" || t == "==" ||
         t == "!=";
}

/// Read a dotted chain starting at token index i: `a.b->c`.
/// Returns the flat name and sets `end` to one past the last token.
std::string read_chain(const std::vector<Token>& tokens, std::size_t i,
                       std::size_t& end) {
  std::string name = tokens[i].text;
  std::size_t j = i + 1;
  while (j + 1 < tokens.size() &&
         (tokens[j].is(".") || tokens[j].is("->")) && tokens[j + 1].ident()) {
    name += "." + tokens[j + 1].text;
    j += 2;
  }
  end = j;
  return name;
}

struct TaintSet {
  std::set<std::string> names;

  static std::string head(const std::string& chain) {
    const std::size_t dot = chain.find('.');
    return dot == std::string::npos ? chain : chain.substr(0, dot);
  }

  /// Family rule (used for taint PROPAGATION): any shared root object
  /// carries taint — `shape.elements` is dirty if `shape.channels` is.
  bool tainted(const std::string& chain) const {
    if (names.count(chain)) return true;
    const std::string h = head(chain);
    for (const std::string& n : names) {
      if (head(n) == h) return true;
    }
    return false;
  }

  /// Strict rule (used for SINKS): the chain itself, an ancestor, or a
  /// descendant must be a recorded entry.  Mere same-root siblings don't
  /// fire — `message.stage_index` being dirty doesn't make
  /// `message.tensor.data()` a dangerous memcpy argument.
  bool tainted_strict(const std::string& chain) const {
    if (names.count(chain)) return true;
    for (const std::string& n : names) {
      if (n.size() > chain.size() && n.compare(0, chain.size(), chain) == 0 &&
          n[chain.size()] == '.') {
        return true;
      }
      if (chain.size() > n.size() && chain.compare(0, n.size(), n) == 0 &&
          chain[n.size()] == '.') {
        return true;
      }
    }
    return false;
  }
  void add(const std::string& chain) { names.insert(chain); }
  /// Overwrite: clears this exact chain and everything below it.
  void clear_name(const std::string& chain) {
    names.erase(chain);
    for (auto it = names.begin(); it != names.end();) {
      if (it->size() > chain.size() &&
          it->compare(0, chain.size(), chain) == 0 &&
          (*it)[chain.size()] == '.') {
        it = names.erase(it);
      } else {
        ++it;
      }
    }
  }
  /// Bounds-check laundering: a guard that inspects any part of the object
  /// vouches for the object — clear every entry rooted at the same head.
  void clear_family(const std::string& chain) {
    const std::string h = head(chain);
    for (auto it = names.begin(); it != names.end();) {
      if (head(*it) == h) {
        it = names.erase(it);
      } else {
        ++it;
      }
    }
  }
};

}  // namespace

void check_taint(const LexedFile& file, const FileModel& model,
                 const Suppressions& sup, const std::string& relpath,
                 std::vector<Finding>& out) {
  (void)relpath;
  const std::vector<Token>& tokens = file.tokens;

  for (const FunctionInfo& fn : model.functions) {
    const std::vector<VarDecl> decls = collect_decls(file, fn);
    TaintSet taint;

    // Chunk the body on ; { } — for-header clauses become pseudo-chunks,
    // which is exactly what the loop-bound sink wants.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t begin = fn.body_begin + 1;
    for (std::size_t i = fn.body_begin + 1; i <= fn.body_end; ++i) {
      const std::string& t = tokens[i].text;
      if (t == ";" || t == "{" || t == "}" || i == fn.body_end) {
        if (i > begin) chunks.emplace_back(begin, i);
        begin = i + 1;
      }
    }

    auto range_has_source = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const Token& tok = tokens[i];
        if (!tok.ident()) continue;
        if ((tok.is("get") || tok.is("take")) && i + 1 < e &&
            tokens[i + 1].is("<")) {
          return true;
        }
        if (tok.is("take_string") && i + 1 < e && tokens[i + 1].is("(")) {
          return true;
        }
        if (tok.text.rfind("decode_", 0) == 0 && i + 1 < e &&
            tokens[i + 1].is("(")) {
          return true;
        }
        if (decoder_methods().count(tok.text) && i > fn.body_begin &&
            (tokens[i - 1].is(".") || tokens[i - 1].is("->")) &&
            i + 1 < e && tokens[i + 1].is("(")) {
          return true;
        }
      }
      return false;
    };

    auto range_has_taint = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        if (!tokens[i].ident()) continue;
        if (i > b && (tokens[i - 1].is(".") || tokens[i - 1].is("->"))) {
          continue;  // only consider chain heads
        }
        std::size_t end_idx;
        const std::string chain = read_chain(tokens, i, end_idx);
        if (taint.tainted(chain)) return true;
      }
      return false;
    };

    auto report = [&](int line, const std::string& name,
                      const std::string& what) {
      if (sup.allows("wire-taint", line)) return;
      Finding f;
      f.check = "wire-taint";
      f.line = line;
      f.message = "'" + name + "' is derived from untrusted wire bytes and "
                  "reaches " + what + " without a bounds check";
      f.hint =
          "PICO_CHECK the decoded value against a plausible bound (e.g. "
          "remaining buffer size) before using it as a size/bound/index";
      out.push_back(std::move(f));
    };

    for (const auto& [cb, ce] : chunks) {
      // --- 1. sanitization -------------------------------------------------
      bool has_guard_kw = false, has_cmp = false;
      for (std::size_t i = cb; i < ce; ++i) {
        const std::string& t = tokens[i].text;
        if (t == "PICO_CHECK" || t == "PICO_CHECK_MSG" || t == "if" ||
            t == "assert") {
          has_guard_kw = true;
        }
        if (is_comparison(t)) has_cmp = true;
      }
      if (has_guard_kw && has_cmp) {
        for (std::size_t i = cb; i < ce; ++i) {
          if (!tokens[i].ident()) continue;
          if (i > cb && (tokens[i - 1].is(".") || tokens[i - 1].is("->"))) {
            continue;
          }
          std::size_t end_idx;
          const std::string chain = read_chain(tokens, i, end_idx);
          if (taint.tainted(chain)) taint.clear_family(chain);
        }
        continue;  // a guard statement is not itself a sink
      }

      // --- 2. sinks --------------------------------------------------------
      // Walk with a group stack to know subscript / call-arg contexts.
      struct Group {
        char open;
        std::string callee;
        bool callee_is_alloc_decl = false;
      };
      std::vector<Group> groups;
      bool loop_chunk = true;  // candidate `i < bound` pseudo-chunk
      for (std::size_t i = cb; i < ce; ++i) {
        const std::string& t = tokens[i].text;
        if (t == "if" || t == "PICO_CHECK" || t == "PICO_CHECK_MSG") {
          loop_chunk = false;
        }
      }
      for (std::size_t i = cb; i < ce; ++i) {
        const Token& tok = tokens[i];
        if (tok.text == "(" || tok.text == "[") {
          Group g;
          g.open = tok.text[0];
          if (tok.text == "(" && i > cb && tokens[i - 1].ident()) {
            g.callee = tokens[i - 1].text;
            // Declaration-with-paren-init of an allocating type:
            // `std::vector<uint8_t> payload(length)`.
            for (const VarDecl& d : decls) {
              if (d.decl_index == i - 1 &&
                  (d.type_text.find("vector") != std::string::npos ||
                   d.type_text.find("string") != std::string::npos ||
                   d.type_text.find("Tensor") != std::string::npos)) {
                g.callee_is_alloc_decl = true;
              }
            }
          }
          groups.push_back(std::move(g));
          continue;
        }
        if (tok.text == ")" || tok.text == "]") {
          if (!groups.empty()) groups.pop_back();
          continue;
        }
        if (!tok.ident()) continue;
        if (i > cb && (tokens[i - 1].is(".") || tokens[i - 1].is("->"))) {
          continue;
        }
        std::size_t end_idx;
        const std::string chain = read_chain(tokens, i, end_idx);
        if (!taint.tainted_strict(chain)) continue;

        std::string what;
        if (!groups.empty() && groups.back().open == '[') {
          what = "an array subscript";
        } else {
          for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
            if (it->open != '(') continue;
            if (sink_callees().count(it->callee)) {
              what = "an allocation/copy via " + it->callee + "()";
              break;
            }
            if (it->callee_is_alloc_decl) {
              what = "a container construction size";
              break;
            }
          }
        }
        // Loop bound: `x < tainted` inside a bare condition chunk.
        if (what.empty() && loop_chunk && i > cb &&
            is_comparison(tokens[i - 1].text)) {
          what = "a loop bound";
        }
        if (what.empty()) continue;
        report(tok.line, chain, what);
        taint.clear_family(chain);  // one report per value per function
      }

      // --- 3. taint transfer ----------------------------------------------
      // Top-level assignment in this chunk.
      int depth = 0;
      for (std::size_t i = cb; i < ce; ++i) {
        const std::string& t = tokens[i].text;
        if (t == "(" || t == "[") ++depth;
        if (t == ")" || t == "]") --depth;
        if (depth != 0) continue;
        const bool plain = t == "=";
        const bool compound = t == "+=" || t == "-=" || t == "*=" ||
                              t == "/=" || t == "%=" || t == "|=" ||
                              t == "&=";
        if (!plain && !compound) continue;
        // LHS chain ending at i-1: walk back in `ident (./-> ident)*`
        // steps so type qualifiers (`const auto x = ...`) are not swallowed.
        if (i == cb || !tokens[i - 1].ident()) break;  // complex lhs
        std::size_t lhs_start = i - 1;
        while (lhs_start >= cb + 2 &&
               (tokens[lhs_start - 1].is(".") ||
                tokens[lhs_start - 1].is("->")) &&
               tokens[lhs_start - 2].ident()) {
          lhs_start -= 2;
        }
        std::size_t end_idx;
        const std::string lhs = read_chain(tokens, lhs_start, end_idx);
        if (end_idx != i) break;  // should not happen; bail safely
        const bool rhs_dirty =
            range_has_source(i + 1, ce) || range_has_taint(i + 1, ce);
        bool laundered = false;
        for (std::size_t j = i + 1; j < ce; ++j) {
          if ((tokens[j].is("min") || tokens[j].is("clamp")) &&
              j + 1 < ce && tokens[j + 1].is("(")) {
            laundered = true;  // min/clamp impose an upper bound
          }
        }
        if (rhs_dirty && !laundered) {
          taint.add(lhs);
        } else if (plain) {
          taint.clear_name(lhs);  // overwritten with a clean value
        }
        break;
      }
      // Declarations with paren/brace initializers: `T x(expr)`.
      for (const VarDecl& d : decls) {
        if (d.decl_index < cb || d.decl_index >= ce) continue;
        const std::size_t after = d.decl_index + 1;
        if (after >= ce) continue;
        if (tokens[after].is("(") || tokens[after].is("{")) {
          const std::size_t close = match_forward(tokens, after);
          if (range_has_source(after + 1, std::min(close, ce)) ||
              range_has_taint(after + 1, std::min(close, ce))) {
            taint.add(d.name);
          }
        }
      }
      // read_all(fd, &x, n): the out-parameter is wire data.
      for (std::size_t i = cb; i + 2 < ce; ++i) {
        if (tokens[i].is("read_all") && tokens[i + 1].is("(")) {
          const std::size_t close = match_forward(tokens, i + 1);
          for (std::size_t j = i + 2; j < std::min(close, ce); ++j) {
            if (tokens[j].is("&") && tokens[j + 1].ident()) {
              std::size_t end_idx;
              taint.add(read_chain(tokens, j + 1, end_idx));
            }
          }
        }
      }
    }
  }
}

}  // namespace pico::lint
