// Interprocedural fixture: a call spelled with explicit template arguments
// (`name<8>(...)`, as register-tiled kernels dispatch on their tile width)
// is a call site like any other. An effect behind it must reach the root;
// before the indexer recognized the spelling, the callee's body was never
// walked and the root passed unproven.
#include <cstddef>
#include <vector>

namespace ipa_fix {

template <std::size_t N>
void ta_grow(std::vector<int>& v) {
    v.resize(N);  // the real allocation, behind a templated call
}

// wifisense-lint: requires(noalloc)  // lint-expect: ipa.alloc-leak
void ta_root(std::vector<int>& v) {
    ta_grow<8>(v);
}

// Control: a pure templated callee, and a comparison that must not be
// mistaken for a call, stay clean.
template <int N>
int ta_scale(int x) {
    return x * N;
}

// wifisense-lint: requires(noalloc, noexcept, noclock, det)
int ta_clean_root(int a, int b) {
    const bool less = a < b;
    return less ? ta_scale<3>(a) : static_cast<int>(b);
}

}  // namespace ipa_fix
