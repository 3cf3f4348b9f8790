/**
 * @file
 * SSE2 kernel table: 2-lane instantiations of the shared bodies.
 *
 * SSE2 is the x86-64 baseline, so this file needs no extra compile
 * flags. The tree kernels stay on the scalar traversal — 2-lane
 * gathers do not exist below AVX2 and emulating them buys nothing.
 */

#include "ml/kernels_impl.hh"

#if defined(__SSE2__)

namespace rhmd::ml::detail
{

const KernelTable &
sse2Table()
{
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.target = simd::Target::Sse2;
        t.linearMargin = linearMarginVec<simd::VecSse2>;
        t.standardizeRow = standardizeRowVec<simd::VecSse2>;
        t.rateConvertU32 = rateConvertU32Vec<simd::VecSse2>;
        t.rateAccumulateU32 = rateAccumulateU32Vec<simd::VecSse2>;
        t.rateConvertF64 = rateConvertF64Vec<simd::VecSse2>;
        t.mlpHiddenPre = mlpHiddenPreVec<simd::VecSse2>;
        t.momentumStep = momentumStepVec<simd::VecSse2>;
        return t;
    }();
    return table;
}

} // namespace rhmd::ml::detail

#endif // __SSE2__
