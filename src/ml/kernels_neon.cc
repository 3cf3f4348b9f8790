/**
 * @file
 * NEON kernel table: 2-lane instantiations of the shared bodies.
 *
 * NEON is the aarch64 baseline, so this file needs no extra compile
 * flags. Tree kernels stay on the scalar traversal (no gathers).
 */

#include "ml/kernels_impl.hh"

#if defined(__ARM_NEON) && defined(__aarch64__)

namespace rhmd::ml::detail
{

const KernelTable &
neonTable()
{
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.target = simd::Target::Neon;
        t.linearMargin = linearMarginVec<simd::VecNeon>;
        t.standardizeRow = standardizeRowVec<simd::VecNeon>;
        t.rateConvertU32 = rateConvertU32Vec<simd::VecNeon>;
        t.rateAccumulateU32 = rateAccumulateU32Vec<simd::VecNeon>;
        t.rateConvertF64 = rateConvertF64Vec<simd::VecNeon>;
        t.mlpHiddenPre = mlpHiddenPreVec<simd::VecNeon>;
        t.momentumStep = momentumStepVec<simd::VecNeon>;
        return t;
    }();
    return table;
}

} // namespace rhmd::ml::detail

#endif // __ARM_NEON && __aarch64__
