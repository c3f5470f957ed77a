#include "nn/vgg_mini.hpp"

#include <stdexcept>

namespace tilesparse {

VggMini::VggMini(const VggMiniConfig& config) : config_(config) {
  Rng rng(config.seed);
  const std::size_t h = config.height, w = config.width;
  conv1_ = std::make_unique<Conv3x3>("conv1", config.channels,
                                     config.conv1_channels, h, w, rng);
  relu1_ = std::make_unique<ReLU>();
  pool1_ = std::make_unique<AvgPool2>(config.conv1_channels, h, w);
  conv2_ = std::make_unique<Conv3x3>("conv2", config.conv1_channels,
                                     config.conv2_channels, h / 2, w / 2, rng);
  relu2_ = std::make_unique<ReLU>();
  pool2_ = std::make_unique<AvgPool2>(config.conv2_channels, h / 2, w / 2);
  const std::size_t flat = config.conv2_channels * (h / 4) * (w / 4);
  fc1_ = std::make_unique<Linear>("fc1", flat, config.fc_dim, rng);
  relu3_ = std::make_unique<ReLU>();
  fc2_ = std::make_unique<Linear>("fc2", config.fc_dim, config.classes, rng);
}

MatrixF VggMini::forward(const MatrixF& images) {
  MatrixF x = conv1_->forward(images);
  x = relu1_->forward(x);
  x = pool1_->forward(x);
  x = conv2_->forward(x);
  x = relu2_->forward(x);
  x = pool2_->forward(x);
  x = fc1_->forward(x);
  x = relu3_->forward(x);
  return fc2_->forward(x);
}

void VggMini::backward(const MatrixF& dlogits) {
  MatrixF d = fc2_->backward(dlogits);
  d = relu3_->backward(d);
  d = fc1_->backward(d);
  d = pool2_->backward(d);
  d = relu2_->backward(d);
  d = conv2_->backward(d);
  d = pool1_->backward(d);
  d = relu1_->backward(d);
  conv1_->backward(d);
}

std::vector<Param*> VggMini::params() {
  std::vector<Param*> all;
  for (Layer* layer : {static_cast<Layer*>(conv1_.get()),
                       static_cast<Layer*>(conv2_.get()),
                       static_cast<Layer*>(fc1_.get()),
                       static_cast<Layer*>(fc2_.get())}) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param*> VggMini::prunable_weights() {
  // Conv (im2col) and hidden FC weights; the 10-class output head is
  // excluded for the same reason as BertMini's classifier.
  return {&conv1_->weight(), &conv2_->weight(), &fc1_->weight()};
}

void VggMini::pack_weights(const std::string& format,
                           const std::vector<TilePattern>* patterns,
                           const ExecContext& ctx) {
  if (patterns && patterns->size() != 3) {
    throw std::invalid_argument(
        "VggMini::pack_weights: patterns must align with prunable_weights()");
  }
  auto options_for = [&](std::size_t i) {
    PackOptions options;
    if (patterns) options.pattern = &(*patterns)[i];
    return options;
  };
  conv1_->pack_weight(format, options_for(0));
  conv1_->set_exec_context(ctx);
  conv2_->pack_weight(format, options_for(1));
  conv2_->set_exec_context(ctx);
  fc1_->pack_weight(format, options_for(2));
  fc1_->set_exec_context(ctx);
}

void VggMini::clear_packed_weights() {
  conv1_->clear_packed_weight();
  conv2_->clear_packed_weight();
  fc1_->clear_packed_weight();
}

}  // namespace tilesparse
