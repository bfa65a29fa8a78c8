#include "src/ml/tuning.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

#include "src/ml/models.hpp"
#include "src/obs/trace.hpp"

namespace axf::ml {

namespace {

ModelVariant scaledVariant(std::string description, std::function<RegressorPtr()> makeInner) {
    return ModelVariant{std::move(description), [makeInner = std::move(makeInner)] {
                            return RegressorPtr(
                                std::make_unique<ScaledRegressor>(makeInner()));
                        }};
}

}  // namespace

std::vector<ModelVariant> hyperparameterGrid(const std::string& modelId,
                                             const AsicColumns& asic) {
    std::vector<ModelVariant> grid;
    const auto add = [&grid](std::string desc, std::function<RegressorPtr()> make) {
        grid.push_back(ModelVariant{std::move(desc), std::move(make)});
    };

    if (modelId == "ML1" || modelId == "ML2" || modelId == "ML3") {
        const std::size_t col = modelId == "ML1"   ? asic.power
                                : modelId == "ML2" ? asic.delay
                                                   : asic.area;
        add("default", [col] { return RegressorPtr(std::make_unique<SingleFeatureRegression>(col)); });
    } else if (modelId == "ML4") {
        for (int comp : {2, 4, 6})
            grid.push_back(scaledVariant("components=" + std::to_string(comp), [comp] {
                return RegressorPtr(std::make_unique<PlsRegression>(comp));
            }));
    } else if (modelId == "ML5") {
        for (int trees : {20, 40, 80}) {
            add("trees=" + std::to_string(trees), [trees] {
                RandomForest::Params p;
                p.trees = trees;
                return RegressorPtr(std::make_unique<RandomForest>(p));
            });
        }
    } else if (modelId == "ML6") {
        for (double lr : {0.05, 0.08, 0.15}) {
            add("lr=" + std::to_string(lr), [lr] {
                GradientBoosting::Params p;
                p.learningRate = lr;
                return RegressorPtr(std::make_unique<GradientBoosting>(p));
            });
        }
    } else if (modelId == "ML7") {
        for (int depth : {3, 4, 6}) {
            add("depth=" + std::to_string(depth), [depth] {
                AdaBoostR2::Params p;
                p.maxDepth = depth;
                return RegressorPtr(std::make_unique<AdaBoostR2>(p));
            });
        }
    } else if (modelId == "ML8") {
        for (double noise : {0.01, 0.05, 0.2})
            grid.push_back(scaledVariant("noise=" + std::to_string(noise), [noise] {
                return RegressorPtr(std::make_unique<GaussianProcess>(noise));
            }));
    } else if (modelId == "ML9") {
        for (int gens : {16, 28}) {
            SymbolicRegression::Params p;
            p.generations = gens;
            grid.push_back(scaledVariant("generations=" + std::to_string(gens), [p] {
                return RegressorPtr(std::make_unique<SymbolicRegression>(p));
            }));
        }
    } else if (modelId == "ML10") {
        for (double alpha : {0.01, 0.08, 0.5})
            grid.push_back(scaledVariant("alpha=" + std::to_string(alpha), [alpha] {
                return RegressorPtr(std::make_unique<KernelRidge>(alpha));
            }));
    } else if (modelId == "ML11") {
        for (int iters : {10, 30})
            grid.push_back(scaledVariant("iterations=" + std::to_string(iters), [iters] {
                return RegressorPtr(std::make_unique<BayesianRidge>(iters));
            }));
    } else if (modelId == "ML12") {
        for (double alpha : {0.001, 0.01, 0.1})
            grid.push_back(scaledVariant("alpha=" + std::to_string(alpha), [alpha] {
                return RegressorPtr(std::make_unique<LassoRegression>(alpha));
            }));
    } else if (modelId == "ML13") {
        for (int active : {0, 6, 10})
            grid.push_back(scaledVariant("maxActive=" + std::to_string(active), [active] {
                return RegressorPtr(std::make_unique<LarsRegression>(active));
            }));
    } else if (modelId == "ML14") {
        for (double alpha : {0.1, 1.0, 10.0})
            grid.push_back(scaledVariant("alpha=" + std::to_string(alpha), [alpha] {
                return RegressorPtr(std::make_unique<RidgeRegression>(alpha));
            }));
    } else if (modelId == "ML15") {
        for (double eta : {0.005, 0.02, 0.05})
            grid.push_back(scaledVariant("eta0=" + std::to_string(eta), [eta] {
                return RegressorPtr(std::make_unique<SgdRegressor>(120, eta));
            }));
    } else if (modelId == "ML16") {
        for (int k : {3, 5, 9})
            grid.push_back(scaledVariant("k=" + std::to_string(k), [k] {
                return RegressorPtr(std::make_unique<KnnRegressor>(k));
            }));
    } else if (modelId == "ML17") {
        for (int hidden : {8, 16, 32}) {
            MlpRegressor::Params p;
            p.hidden = hidden;
            grid.push_back(scaledVariant("hidden=" + std::to_string(hidden), [p] {
                return RegressorPtr(std::make_unique<MlpRegressor>(p));
            }));
        }
    } else if (modelId == "ML18") {
        for (int depth : {6, 10, 14}) {
            add("depth=" + std::to_string(depth), [depth] {
                DecisionTree::Params p;
                p.maxDepth = depth;
                return RegressorPtr(std::make_unique<DecisionTree>(p));
            });
        }
    } else {
        throw std::out_of_range("hyperparameterGrid: unknown model id " + modelId);
    }
    return grid;
}

TunedModel tuneModel(const std::string& modelId, const AsicColumns& asic, const Matrix& xTrain,
                     const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                     const std::function<double(const Vector&, const Vector&)>& score) {
    obs::Span span("ml.tune_model");
    TunedModel best;
    best.validationScore = -std::numeric_limits<double>::infinity();
    for (ModelVariant& variant : hyperparameterGrid(modelId, asic)) {
        RegressorPtr model = variant.make();
        model->fit(xTrain, yTrain);
        const double s = score(yVal, model->predictAll(xVal));
        if (s > best.validationScore) {
            best.validationScore = s;
            best.variantDescription = variant.description;
            best.make = variant.make;
        }
    }
    return best;
}

}  // namespace axf::ml
