#pragma once
// VggMini — the scaled-down VGG/ImageNet proxy: two conv blocks (conv +
// ReLU + avg-pool) followed by two FC layers.  The conv weights are the
// im2col-lowered (C_in*9) x C_out matrices, pruned exactly like the
// paper prunes VGG.

#include <memory>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {

struct VggMiniConfig {
  std::size_t channels = 3;
  std::size_t height = 8;
  std::size_t width = 8;
  std::size_t conv1_channels = 16;
  std::size_t conv2_channels = 32;
  std::size_t fc_dim = 128;
  std::size_t classes = 10;
  std::uint64_t seed = 2;
};

class VggMini {
 public:
  explicit VggMini(const VggMiniConfig& config);

  MatrixF forward(const MatrixF& images);  ///< batch x (C*H*W) -> logits
  void backward(const MatrixF& dlogits);

  std::vector<Param*> params();
  std::vector<Param*> prunable_weights();  ///< conv im2col mats + FC weights

  /// Packs the prunable GEMMs — the two conv im2col matrices and fc1 —
  /// for inference under a registered PackedWeight format; forward()
  /// then runs those GEMMs through the packed backends.
  /// `patterns` aligns 1:1 with prunable_weights(); may be null for
  /// pattern-free formats.
  void pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns = nullptr,
                    const ExecContext& ctx = {});
  void clear_packed_weights();

  const VggMiniConfig& config() const noexcept { return config_; }

 private:
  VggMiniConfig config_;
  std::unique_ptr<Conv3x3> conv1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<AvgPool2> pool1_;
  std::unique_ptr<Conv3x3> conv2_;
  std::unique_ptr<ReLU> relu2_;
  std::unique_ptr<AvgPool2> pool2_;
  std::unique_ptr<Linear> fc1_;
  std::unique_ptr<ReLU> relu3_;
  std::unique_ptr<Linear> fc2_;
};

}  // namespace tilesparse
