/**
 * @file
 * MLP implementation (per-example momentum SGD on log loss).
 */

#include "ml/mlp.hh"

#include <cmath>

#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"  // for sigmoid()
#include "support/logging.hh"
#include "support/stats.hh"

namespace rhmd::ml
{

Mlp::Mlp(MlpConfig config)
    : config_(config)
{
}

void
Mlp::train(const Dataset &data, Rng &rng)
{
    fatal_if(data.empty(), "cannot train MLP on empty data");
    data.validate();
    inputDim_ = data.dim();
    const std::size_t d = inputDim_;
    const std::size_t hidden = config_.hidden == 0 ? d : config_.hidden;

    // Training runs on an input-major copy of the hidden layer,
    // w1[j * hidden + h], so the kernels give each hidden unit its
    // own vector lane; w1_ gets the [hidden][input] layout back at
    // the end. Draws happen in the [h][j] order regardless, so the
    // initial weights do not depend on the layout.
    const double init_sd =
        config_.initScale / std::sqrt(static_cast<double>(d));
    std::vector<double> w1(d * hidden);
    for (std::size_t h = 0; h < hidden; ++h) {
        for (std::size_t j = 0; j < d; ++j)
            w1[j * hidden + h] = rng.gaussian(0.0, init_sd);
    }
    b1_.assign(hidden, 0.0);
    w2_.assign(hidden, 0.0);
    b2_ = 0.0;
    const double out_sd =
        config_.initScale / std::sqrt(static_cast<double>(hidden));
    for (double &w : w2_)
        w = rng.gaussian(0.0, out_sd);

    std::vector<double> v1(d * hidden, 0.0);
    std::vector<double> vb1(hidden, 0.0);
    std::vector<double> v2(hidden, 0.0);
    double vb2 = 0.0;

    std::vector<double> act(hidden);
    std::vector<double> delta(hidden);
    const KernelTable &k = kernels();
    const double momentum = config_.momentum;
    const double l2 = config_.l2;

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        const double step = config_.learningRate /
                            (1.0 + 0.03 * static_cast<double>(epoch));
        const std::vector<std::size_t> order =
            rng.permutation(data.size());

        for (std::size_t i : order) {
            const double *x = data.x[i].data();
            const double target = static_cast<double>(data.y[i]);

            // Forward: the tanh calls and the h-ascending output sum
            // stay scalar.
            k.mlpHiddenPre(w1.data(), x, b1_.data(), d, hidden,
                           act.data());
            double z_out = b2_;
            for (std::size_t h = 0; h < hidden; ++h) {
                act[h] = std::tanh(act[h]);
                z_out += w2_[h] * act[h];
            }
            const double p = sigmoid(z_out);

            // Backward: dLoss/dz_out for log loss is (p - y). Every
            // hidden delta reads w2_[h] before its update below.
            const double delta_out = p - target;
            for (std::size_t h = 0; h < hidden; ++h)
                delta[h] = delta_out * w2_[h] * (1.0 - act[h] * act[h]);

            k.momentumStep(w2_.data(), v2.data(), act.data(), &delta_out,
                           1, hidden, momentum, step, l2);
            k.momentumStep(w1.data(), v1.data(), delta.data(), x, d,
                           hidden, momentum, step, l2);
            for (std::size_t h = 0; h < hidden; ++h) {
                vb1[h] = momentum * vb1[h] - step * delta[h];
                b1_[h] += vb1[h];
            }
            vb2 = momentum * vb2 - step * delta_out;
            b2_ += vb2;
        }
    }

    w1_.assign(hidden, std::vector<double>(d));
    for (std::size_t h = 0; h < hidden; ++h) {
        for (std::size_t j = 0; j < d; ++j)
            w1_[h][j] = w1[j * hidden + h];
    }
}

double
Mlp::score(const std::vector<double> &x) const
{
    panic_if(w1_.empty(), "MLP scored before training");
    panic_if(x.size() != inputDim_, "MLP input dim mismatch");
    double z_out = b2_;
    for (std::size_t h = 0; h < w1_.size(); ++h)
        z_out += w2_[h] * std::tanh(dot(w1_[h], x) + b1_[h]);
    return sigmoid(z_out);
}

std::vector<double>
Mlp::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(w1_.empty(), "MLP scored before training");
    panic_if(x.rows() > 0 && x.cols() != inputDim_,
             "MLP batch dim mismatch: ", x.cols(), " vs ", inputDim_);
    const KernelTable &k = kernels();
    if (k.target == simd::Target::Scalar) {
        // Reference path: inline dot with score()'s accumulation
        // order so batch and serial activations are bit-identical.
        std::vector<double> out(x.rows());
        for (std::size_t r = 0; r < x.rows(); ++r) {
            const double *row = x.row(r);
            double z_out = b2_;
            for (std::size_t h = 0; h < w1_.size(); ++h) {
                const double *wh = w1_[h].data();
                double z = 0.0;
                for (std::size_t j = 0; j < inputDim_; ++j)
                    z += wh[j] * row[j];
                z_out += w2_[h] * std::tanh(z + b1_[h]);
            }
            out[r] = sigmoid(z_out);
        }
        return out;
    }
    // Kernel path: one affine kernel sweep per hidden unit, with the
    // tanh and output accumulation kept as scalar per-row steps —
    // the h-ascending z_out sum and every libm call match the
    // reference exactly.
    std::vector<double> hidden = scoreSpan(x);
    std::vector<double> out(x.rows(), b2_);
    for (std::size_t h = 0; h < w1_.size(); ++h) {
        k.linearMargin(x, w1_[h].data(), b1_[h], hidden.data());
        for (std::size_t r = 0; r < x.rows(); ++r)
            out[r] += w2_[h] * std::tanh(hidden[r]);
    }
    for (double &z : out)
        z = sigmoid(z);
    return out;
}

std::unique_ptr<Classifier>
Mlp::clone() const
{
    return std::make_unique<Mlp>(*this);
}

void
Mlp::setParams(std::vector<std::vector<double>> w1,
               std::vector<double> b1, std::vector<double> w2, double b2)
{
    panic_if(w1.empty() || w1.size() != b1.size() ||
             w1.size() != w2.size(),
             "inconsistent MLP parameter shapes");
    inputDim_ = w1.front().size();
    for (const auto &row : w1)
        panic_if(row.size() != inputDim_, "ragged MLP weight matrix");
    w1_ = std::move(w1);
    b1_ = std::move(b1);
    w2_ = std::move(w2);
    b2_ = b2;
}

std::vector<double>
Mlp::collapsedWeights() const
{
    panic_if(w1_.empty(), "MLP collapsed before training");
    std::vector<double> collapsed(inputDim_, 0.0);
    for (std::size_t h = 0; h < w1_.size(); ++h)
        axpy(collapsed, w2_[h], w1_[h]);
    return collapsed;
}

} // namespace rhmd::ml
