#include "effects.hpp"

#include <algorithm>
#include <cctype>
#include <deque>

namespace wifilint {

namespace {

bool path_ends_with(const std::string& path, std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/// Member/free calls that grow a standard container. ALWAYS direct alloc
/// sources at the call site, even when the name also resolves to an indexed
/// function (Matrix::resize forwards to vector::resize — attributing the
/// growth to the call site keeps the real allocation visible instead of
/// vanishing into a self-loop). Call sites below reserved capacity carry an
/// allow(noalloc.container-growth) line with the proof, which suppresses
/// the source here too.
bool growth_call(const std::string& name) {
    static const std::set<std::string> kGrowth = {
        "push_back", "emplace_back", "emplace", "emplace_front",
        "push_front", "insert",      "resize",  "reserve",
        "assign",    "append",       "push",
    };
    return kGrowth.count(name) > 0;
}

/// Allocation routines by token.
bool alloc_call(const std::string& name) {
    static const std::set<std::string> kAlloc = {
        "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
        "make_unique", "make_shared", "to_string", "getenv_string",
    };
    return kAlloc.count(name) > 0;
}

/// std types whose construction owns heap storage. Flagged when used as a
/// declarator (`std::string s(...)`) or mentioned std-qualified in a body.
bool alloc_type(const std::string& name) {
    static const std::set<std::string> kTypes = {
        "string",        "vector",       "deque",         "list",
        "map",           "multimap",     "unordered_map", "set",
        "multiset",      "unordered_set","ostringstream", "istringstream",
        "stringstream",  "priority_queue", "queue",       "stack",
        "function",
    };
    return kTypes.count(name) > 0;
}

/// std calls that throw when they fail; direct throw sources ONLY when the
/// name does not resolve to an indexed function (Matrix::at is unchecked by
/// design; Result::value throws via its own indexed body).
bool throwing_external(const std::string& name) {
    static const std::set<std::string> kThrow = {
        "at", "value", "stoi", "stol", "stoul", "stod", "stof", "substr",
    };
    return kThrow.count(name) > 0;
}

/// Raw wall-clock tokens (the obs.raw-clock / det.clock source set).
bool clock_token(const std::string& name) {
    static const std::set<std::string> kClock = {
        "steady_clock", "high_resolution_clock", "system_clock",
        "clock_gettime", "gettimeofday", "timespec_get",
    };
    return kClock.count(name) > 0;
}

/// Raw RNG tokens (the det.* source set).
bool rng_token(const std::string& name) {
    static const std::set<std::string> kRng = {
        "mt19937",   "mt19937_64", "minstd_rand", "default_random_engine",
        "random_device", "rand",   "srand",       "rand_r",
        "drand48",   "lrand48",    "random_shuffle", "shuffle",
    };
    if (kRng.count(name) > 0) return true;
    static constexpr std::string_view kDist = "_distribution";
    return name.size() > kDist.size() &&
           name.compare(name.size() - kDist.size(), kDist.size(), kDist) == 0;
}

bool all_caps_macro(const std::string& t) {
    bool has_alpha = false;
    for (const char c : t) {
        if (std::islower(static_cast<unsigned char>(c))) return false;
        if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
    }
    return has_alpha;
}

/// The rules whose allow() suppresses a direct source of each effect. The
/// file-local rule that would fire on the same token is accepted alongside
/// the ipa.* rule, so one reasoned allow covers both layers.
const std::set<std::string>& effect_allow_rules(unsigned bit) {
    static const std::set<std::string> kAlloc = {
        "noalloc.new", "noalloc.malloc", "noalloc.container-growth",
        "noalloc.std-function", "ipa.alloc-leak"};
    static const std::set<std::string> kThrow = {"ipa.throw-leak"};
    static const std::set<std::string> kClock = {"det.clock", "obs.raw-clock",
                                                 "ipa.clock-leak"};
    static const std::set<std::string> kRng = {
        "det.rand", "det.random-device", "det.raw-mt19937", "ipa.rng-leak"};
    switch (bit) {
        case kEffAlloc: return kAlloc;
        case kEffThrow: return kThrow;
        case kEffClock: return kClock;
        default: return kRng;
    }
}

bool source_allowed(const TreeIndex& tree, const std::string& file,
                    std::size_t line, unsigned bit) {
    const std::set<std::string>& rules = effect_allow_rules(bit);
    const auto fa = tree.file_allows.find(file);
    if (fa != tree.file_allows.end()) {
        for (const std::string& r : rules)
            if (fa->second.count(r)) return true;
    }
    const auto la = tree.line_allows.find(file);
    if (la != tree.line_allows.end()) {
        const auto it = la->second.find(line);
        if (it != la->second.end()) {
            for (const std::string& r : rules)
                if (it->second.count(r)) return true;
        }
    }
    return false;
}

/// True when `line` of `file` carries (or a file-level directive carries) an
/// allow() for exactly `rule`.
bool allow_on_line(const TreeIndex& tree, const std::string& file,
                   std::size_t line, const std::string& rule) {
    const auto fa = tree.file_allows.find(file);
    if (fa != tree.file_allows.end() && fa->second.count(rule)) return true;
    const auto la = tree.line_allows.find(file);
    if (la == tree.line_allows.end()) return false;
    const auto it = la->second.find(line);
    return it != la->second.end() && it->second.count(rule);
}

void add_source(const TreeIndex& tree, FunctionDef& fn, unsigned bit,
                std::size_t line, std::string what) {
    if (source_allowed(tree, fn.file, line, bit)) return;
    fn.direct_effects |= bit;
    fn.sources.push_back({bit, line, std::move(what)});
}

/// Token-level scan of one function body for direct effect sources.
void scan_body(const TreeIndex& tree, FunctionDef& fn) {
    const auto fit = tree.file_lines.find(fn.file);
    if (fit == tree.file_lines.end()) return;
    const std::vector<Line>& lines = fit->second;
    const bool exempt = det_exempt_path(fn.file);

    for (std::size_t li = fn.body_begin; li <= fn.body_end && li <= lines.size();
         ++li) {
        const Line& line = lines[li - 1];
        if (is_preprocessor(line)) continue;
        const std::string& code = line.code;
        for (const Token& t : identifiers(code)) {
            // Clip the body's first/last line to the brace columns.
            if (li == fn.body_begin && t.begin < fn.body_open_col) continue;
            if (li == fn.body_end && t.begin > fn.body_close_col) continue;

            const char after = next_code_char(code, t.end);
            if (t.text == "new" || t.text == "delete") {
                add_source(tree, fn, kEffAlloc, li,
                           "operator " + t.text);
            } else if (alloc_call(t.text) && (after == '(' || after == '<')) {
                add_source(tree, fn, kEffAlloc, li, t.text + "()");
            } else if (t.text == "throw") {
                add_source(tree, fn, kEffThrow, li, "throw");
            } else if (!exempt && clock_token(t.text)) {
                add_source(tree, fn, kEffClock, li, t.text);
            } else if (!exempt &&
                       (t.text == "time" || t.text == "clock") &&
                       after == '(' && is_qualified_std(code, t.begin)) {
                add_source(tree, fn, kEffClock, li, "std::" + t.text + "()");
            } else if (!exempt && rng_token(t.text)) {
                add_source(tree, fn, kEffRng, li, t.text);
            } else if (alloc_type(t.text) &&
                       is_qualified_std(code, t.begin)) {
                // std::string / std::vector / std::function mentioned inside
                // a body: a local owning object (or a by-value temporary).
                add_source(tree, fn, kEffAlloc, li, "std::" + t.text);
            }
        }
    }

    // Call-level sources.
    for (const CallSite& cs : fn.calls) {
        if (fn.allow_calls.count(cs.name)) continue;
        if (cs.decl) {
            // `Type name(...)` declarator: allocation only for std owning
            // types that are not project classes.
            if (alloc_type(cs.name) && tree.by_name.find(cs.name) ==
                                           tree.by_name.end() &&
                tree.class_names.find(cs.name) == tree.class_names.end()) {
                add_source(tree, fn, kEffAlloc, cs.line,
                           "local std::" + cs.name);
            }
            continue;
        }
        if (growth_call(cs.name)) {
            add_source(tree, fn, kEffAlloc, cs.line,
                       "container growth via '" + cs.name + "'");
            continue;
        }
        const bool resolved = !resolve_call(tree, fn, cs).empty();
        if (!resolved && throwing_external(cs.name)) {
            add_source(tree, fn, kEffThrow, cs.line,
                       "std::" + cs.name + "() may throw");
        }
    }

    fn.direct_effects &= ~fn.trusted_effects;
}

}  // namespace

bool det_exempt_path(const std::string& path) {
    return path_ends_with(path, "src/common/rng.hpp") ||
           path_ends_with(path, "src/common/parallel.hpp") ||
           path_ends_with(path, "src/common/parallel.cpp") ||
           path_ends_with(path, "src/common/trace.hpp") ||
           path_ends_with(path, "src/common/trace.cpp");
}

bool benign_external(const std::string& name) {
    static const std::set<std::string> kBenign = {
        // libc memory/string ops on existing storage
        "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp",
        "strncmp", "snprintf", "free",
        // <cmath> & friends
        "abs", "fabs", "sqrt", "cbrt", "exp", "expf", "log", "log2", "log10",
        "log1p", "log1pf", "expm1", "expm1f", "exp2",
        "pow", "fma", "fmaf", "floor", "ceil", "round", "lround", "trunc",
        "nearbyint", "nearbyintf", "rint", "rintf", "lrint", "lrintf",
        "tanh", "sinh", "cosh", "sin", "cos", "tan", "atan", "atan2", "asin",
        "acos", "erf", "erfc", "hypot", "fmod", "copysign", "nextafter",
        // <complex> constructors/accessors (value types, no heap)
        "polar", "real", "imag", "conj",
        "isnan", "isinf", "isfinite", "signbit", "nan", "nanf",
        // <algorithm>/<numeric> on iterators (no growth)
        "min", "max", "clamp", "min_element", "max_element", "accumulate",
        "inner_product", "fill", "fill_n", "copy", "copy_n", "transform",
        "count", "count_if", "find", "find_if", "any_of", "all_of",
        "none_of", "sort", "stable_sort", "nth_element", "partial_sort",
        "lower_bound", "upper_bound", "equal", "iota", "reduce", "distance",
        "rotate", "reverse", "unique", "remove", "remove_if", "partition",
        // utility / object plumbing
        "move", "forward", "swap", "exchange", "get", "tie", "make_pair",
        "make_tuple", "declval", "addressof", "launder", "as_const",
        // containers/views: non-growing accessors
        "size", "ssize", "empty", "data", "begin", "end", "cbegin", "cend",
        "rbegin", "rend", "front", "back", "clear", "pop", "pop_back",
        "pop_front", "top", "erase", "capacity", "shrink_to_fit", "c_str",
        "length", "find_first_of", "find_last_of", "compare", "starts_with",
        "ends_with", "first", "last", "subspan", "span",
        // atomics / sync primitives (no heap, no clock)
        "load", "store", "fetch_add", "fetch_sub", "compare_exchange_weak",
        "compare_exchange_strong", "wait", "notify_one", "notify_all",
        "lock", "unlock", "try_lock", "join", "joinable", "detach",
        "hardware_concurrency",
        // numeric limits / casts
        "numeric_limits", "bit_cast", "byteswap", "countl_zero",
        "countr_zero", "popcount", "has_single_bit",
        // iostream state queries on existing streams
        "good", "fail", "eof", "is_open", "gcount", "tellg", "tellp",
        "setstate", "rdstate", "precision", "width",
        // chrono plumbing (clock-ness is caught via the clock-name tokens,
        // so the conversion helpers themselves are effect-free)
        "now", "time_since_epoch", "duration", "duration_cast", "nanoseconds",
        "microseconds", "milliseconds", "seconds",
        // builtin-type functional casts: `int(x)`, `std::uint32_t(x)`
        "int", "char", "float", "double", "long", "short", "unsigned",
        "signed", "bool", "size_t", "ptrdiff_t", "int8_t", "int16_t",
        "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
        "intptr_t", "uintptr_t", "byte",
        // misc project-safe externals
        "exit", "getenv", "assert", "terminate", "quick_exit",
        // stdio on existing streams (no heap in the caller's arena)
        "fprintf", "printf", "sprintf", "vsnprintf", "fputs", "fwrite",
        "fflush", "puts", "putchar", "fputc",
        // numeric_limits member queries
        "quiet_NaN", "signaling_NaN", "infinity", "epsilon", "lowest",
        "denorm_min",
        // std exception constructors: the `throw` keyword at the same site
        // is the flagged effect source; an allow() on that line covers the
        // whole statement, so the ctor name itself adds no information
        "runtime_error", "logic_error", "invalid_argument", "out_of_range",
        "domain_error", "length_error", "overflow_error", "underflow_error",
        "range_error",
        // exception plumbing that does not itself throw (rethrow_exception
        // is deliberately NOT here: it throws by definition)
        "current_exception", "what", "has_value", "string_view",
    };
    if (kBenign.count(name) > 0) return true;
    // Compiler intrinsics and vendor builtins.
    return name.rfind("_mm", 0) == 0 || name.rfind("__builtin", 0) == 0 ||
           name.rfind("_mm256", 0) == 0 || name.rfind("__get_cpuid", 0) == 0 ||
           all_caps_macro(name);
}

namespace {

/// Qualified path of a function's enclosing scope (class for members,
/// namespace for free functions): qual_name minus its last component.
std::string enclosing_path(const std::string& qual_name) {
    const std::size_t pos = qual_name.rfind("::");
    return pos == std::string::npos ? std::string() : qual_name.substr(0, pos);
}

/// Simple (unqualified) name of the component before the function name in a
/// qualified path, i.e. the class of a member function.
std::string enclosing_simple(const std::string& qual_name) {
    const std::string path = enclosing_path(qual_name);
    const std::size_t pos = path.rfind("::");
    return pos == std::string::npos ? path : path.substr(pos + 2);
}

bool smart_pointer_name(const std::string& t) {
    return t == "unique_ptr" || t == "shared_ptr" || t == "weak_ptr";
}

/// Declared type of a member-call receiver, or "" when unknown: local
/// declarator types first, then the caller's class fields, then globals.
/// A smart-pointer receiver resolves to its recorded pointee ("name[]"
/// element key): `p_->f()` dispatches on the pointee's type.
std::string receiver_type(const TreeIndex& tree, const FunctionDef& caller,
                          const std::string& recv) {
    if (recv == "this") return enclosing_simple(caller.qual_name);
    const auto lookup = [&](const std::map<std::string, std::string>& types)
        -> std::string {
        const auto it = types.find(recv);
        if (it == types.end()) return "";
        if (smart_pointer_name(it->second)) {
            const auto e = types.find(recv + "[]");
            return e != types.end() ? e->second : "";
        }
        return it->second;
    };
    std::string t = lookup(caller.local_types);
    if (!t.empty()) return t;
    const auto cf = tree.class_fields.find(enclosing_path(caller.qual_name));
    if (cf != tree.class_fields.end()) {
        t = lookup(cf->second);
        if (!t.empty()) return t;
    }
    t = lookup(tree.global_types);
    if (t == "?") return "";
    return t;
}

}  // namespace

std::vector<std::size_t> resolve_call(const TreeIndex& tree,
                                      const FunctionDef& caller,
                                      const CallSite& site) {
    if (caller.allow_calls.count(site.name)) return {};
    if (caller.local_lambdas.count(site.name)) return {};  // scanned in place
    if (site.std_qual) return {};  // std::f() is never a project function
    const auto it = tree.by_name.find(site.name);
    if (it == tree.by_name.end()) return {};
    // Member call with a declared receiver type: keep only that type's
    // methods. An empty narrowed set means the method belongs to an external
    // (unindexed) type — `enabled_.load()` on a std::atomic field must not
    // resolve to an indexed function that happens to share the name.
    if (!site.recv.empty() && site.recv != "?") {
        const std::string type = receiver_type(tree, caller, site.recv);
        if (!type.empty()) {
            // Virtual dispatch: the static type's override set includes
            // every transitively derived class (derived_of, filled by
            // compute_effects from the recorded base clauses).
            const auto dv = tree.derived_of.find(type);
            std::vector<std::size_t> narrowed;
            for (const std::size_t idx : it->second) {
                const std::string cls =
                    enclosing_simple(tree.functions[idx].qual_name);
                if (cls == type ||
                    (dv != tree.derived_of.end() && dv->second.count(cls)))
                    narrowed.push_back(idx);
            }
            return narrowed;
        }
    }
    // Unqualified call inside a member function: when the name is a method
    // of the caller's own class hierarchy it is an implicit `this->` call —
    // narrow to that hierarchy (the class itself, derived overrides, and
    // inherited base methods) instead of the tree-wide name union, so
    // `parameters()` inside Layer::zero_grad never unions with
    // Mlp::parameters. A name with no hierarchy match stays a free call.
    if (site.recv.empty()) {
        const std::string self = enclosing_simple(caller.qual_name);
        if (!self.empty() && tree.class_names.count(self)) {
            const auto below = tree.derived_of.find(self);
            std::vector<std::size_t> hierarchy;
            for (const std::size_t idx : it->second) {
                const std::string cls =
                    enclosing_simple(tree.functions[idx].qual_name);
                if (cls.empty() || !tree.class_names.count(cls)) continue;
                const auto above = tree.derived_of.find(cls);
                if (cls == self ||
                    (below != tree.derived_of.end() && below->second.count(cls)) ||
                    (above != tree.derived_of.end() && above->second.count(self)))
                    hierarchy.push_back(idx);
            }
            if (!hierarchy.empty()) return hierarchy;
        }
    }
    return it->second;
}

EffectResult compute_effects(TreeIndex& tree) {
    EffectResult result;

    // 0. Inheritance closure: base -> every transitively derived class, so
    // resolve_call's receiver narrowing keeps the whole override set of the
    // receiver's static type.
    tree.derived_of.clear();
    for (const auto& [derived, bases] : tree.class_bases)
        for (const std::string& b : bases) tree.derived_of[b].insert(derived);
    for (bool changed = true; changed;) {
        changed = false;
        for (auto& [base, set] : tree.derived_of) {
            for (const std::string& d : std::vector<std::string>(set.begin(),
                                                                 set.end())) {
                const auto sub = tree.derived_of.find(d);
                if (sub == tree.derived_of.end()) continue;
                for (const std::string& dd : sub->second)
                    if (set.insert(dd).second) changed = true;
            }
        }
    }

    // 1. Direct sources + unresolved-call collection.
    for (std::size_t i = 0; i < tree.functions.size(); ++i) {
        FunctionDef& fn = tree.functions[i];
        fn.direct_effects = 0;
        fn.closure_effects = 0;
        fn.sources.clear();
        scan_body(tree, fn);

        std::set<std::string> seen;
        for (const CallSite& cs : fn.calls) {
            if (cs.decl) continue;
            if (fn.allow_calls.count(cs.name)) continue;
            if (fn.local_lambdas.count(cs.name)) continue;
            if (!resolve_call(tree, fn, cs).empty()) continue;
            if (benign_external(cs.name)) continue;
            if (growth_call(cs.name) || alloc_call(cs.name) ||
                throwing_external(cs.name) || clock_token(cs.name) ||
                rng_token(cs.name))
                continue;  // already a direct source with a known effect
            // `std::f(...)` is a library call, not a missed project
            // function; its effects are charged by the token scan
            // (std::string / std::to_string / std::time...), so reporting
            // it unresolved would only duplicate that signal.
            if (cs.std_qual) continue;
            // Member call on a receiver whose declared type is a known
            // external (non-project) type — `os.str()` on an
            // ostringstream is an external method, not an un-indexed
            // project function. Unknown receiver types stay flagged.
            if (!cs.recv.empty() && cs.recv != "?") {
                const std::string rt = receiver_type(tree, fn, cs.recv);
                if (!rt.empty() && !tree.class_names.count(rt)) continue;
            }
            // A reasoned line-level allow(ipa.unresolved-call) covers one
            // specific call site, as an alternative to the function-wide
            // allow-call(name) directive.
            if (allow_on_line(tree, fn.file, cs.line, "ipa.unresolved-call"))
                continue;
            if (!seen.insert(cs.name).second) continue;
            result.unresolved.push_back({i, cs.name, cs.line});
        }
    }

    // 2. Fixpoint closure. A worklist fixpoint over the (reversed) call
    // graph computes the same answer as bottom-up propagation over the SCC
    // condensation: every member of a cycle converges to the union of the
    // cycle's effects.
    std::map<std::size_t, std::vector<std::size_t>> callers;  // callee -> callers
    for (std::size_t i = 0; i < tree.functions.size(); ++i) {
        const FunctionDef& fn = tree.functions[i];
        for (const CallSite& cs : fn.calls) {
            for (const std::size_t callee : resolve_call(tree, fn, cs))
                callers[callee].push_back(i);
        }
        tree.functions[i].closure_effects = fn.direct_effects;
    }

    std::deque<std::size_t> work;
    std::vector<char> queued(tree.functions.size(), 1);
    for (std::size_t i = 0; i < tree.functions.size(); ++i) work.push_back(i);

    while (!work.empty()) {
        const std::size_t i = work.front();
        work.pop_front();
        queued[i] = 0;
        const unsigned effects = tree.functions[i].closure_effects;
        const auto it = callers.find(i);
        if (it == callers.end()) continue;
        for (const std::size_t caller : it->second) {
            FunctionDef& cf = tree.functions[caller];
            const unsigned merged =
                (cf.closure_effects | effects) & ~cf.trusted_effects;
            if (merged != cf.closure_effects) {
                cf.closure_effects = merged;
                if (!queued[caller]) {
                    queued[caller] = 1;
                    work.push_back(caller);
                }
            }
        }
    }

    return result;
}

}  // namespace wifilint
