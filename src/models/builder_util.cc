#include "models/builder_util.h"

namespace recstack {

std::string
GraphBuilder::uniq(const std::string& stem)
{
    return stem + "_" + std::to_string(counter_++);
}

std::string
GraphBuilder::addOp(OperatorPtr op, std::string out_blob)
{
    model_->net.addOp(std::move(op));
    return out_blob;
}

void
GraphBuilder::addWeight(const std::string& name, std::vector<int64_t> shape,
                        bool embedding)
{
    uint64_t elems = 1;
    for (int64_t d : shape) {
        elems *= static_cast<uint64_t>(d);
    }
    model_->weights.push_back({name, std::move(shape), embedding});
    model_->net.addExternalInput(name);
    if (embedding) {
        model_->features.embParams += elems;
    }
}

std::string
GraphBuilder::denseInput(const std::string& blob, int64_t dim)
{
    model_->workload.continuous.push_back({blob, dim});
    model_->net.addExternalInput(blob);
    return blob;
}

std::string
GraphBuilder::embeddingBag(const std::string& prefix, int64_t rows,
                           int64_t dim, int64_t lookups, double zipf,
                           bool weighted)
{
    const std::string table = prefix + "_table";
    const std::string indices = prefix + "_indices";
    const std::string lengths = prefix + "_lengths";
    const std::string out = prefix + "_pooled";
    const std::string weights = weighted ? prefix + "_weights" : "";

    addWeight(table, {rows, dim}, true);
    model_->workload.categorical.push_back(
        {indices, lengths, rows, lookups, zipf, weights});
    model_->net.addExternalInput(indices);
    model_->net.addExternalInput(lengths);

    ++model_->features.numTables;
    model_->features.lookupsPerTable += static_cast<double>(lookups);

    if (weighted) {
        model_->net.addExternalInput(weights);
    }
    addOp(makeSparseLengthsReduce(
              weighted ? SlsKind::kWeightedSum : SlsKind::kSum,
              uniq(weighted ? "slws" : "sls"), table, weights, indices,
              lengths, out, zipf),
          out);
    return out;
}

std::string
GraphBuilder::embeddingGather(const std::string& prefix, int64_t rows,
                              int64_t dim, int64_t lookups, double zipf)
{
    const std::string table = prefix + "_table";
    const std::string indices = prefix + "_indices";
    const std::string lengths = prefix + "_lengths";
    const std::string out = prefix + "_rows";

    addWeight(table, {rows, dim}, true);
    model_->workload.categorical.push_back(
        {indices, lengths, rows, lookups, zipf, ""});
    model_->net.addExternalInput(indices);
    model_->net.addExternalInput(lengths);

    ++model_->features.numTables;
    model_->features.lookupsPerTable += static_cast<double>(lookups);

    addOp(makeGather(uniq("gather"), table, indices, out, zipf), out);
    return out;
}

std::string
GraphBuilder::fc(const std::string& x, int64_t in_dim, int64_t out_dim,
                 bool top)
{
    const std::string stem = uniq("fc");
    const std::string w = stem + "_w";
    const std::string b = stem + "_b";
    const std::string y = stem + "_y";
    addWeight(w, {out_dim, in_dim}, false);
    addWeight(b, {out_dim}, false);
    const uint64_t params =
        static_cast<uint64_t>(out_dim) * static_cast<uint64_t>(in_dim) +
        static_cast<uint64_t>(out_dim);
    model_->features.fcParams += params;
    if (top) {
        model_->features.fcTopParams += params;
    }
    return addOp(makeFC(stem, x, w, b, y), y);
}

std::pair<std::string, std::string>
GraphBuilder::fcWeights(const std::string& stem, int64_t in_dim,
                        int64_t out_dim, bool top)
{
    const std::string w = stem + "_w";
    const std::string b = stem + "_b";
    addWeight(w, {out_dim, in_dim}, false);
    addWeight(b, {out_dim}, false);
    const uint64_t params =
        static_cast<uint64_t>(out_dim) * static_cast<uint64_t>(in_dim) +
        static_cast<uint64_t>(out_dim);
    model_->features.fcParams += params;
    if (top) {
        model_->features.fcTopParams += params;
    }
    return {w, b};
}

std::string
GraphBuilder::fcWith(const std::string& x, const std::string& w,
                     const std::string& b)
{
    const std::string stem = uniq("fc");
    return addOp(makeFC(stem, x, w, b, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::mlp(const std::string& x, int64_t in_dim,
                  const std::vector<int64_t>& widths, bool top)
{
    std::string cur = x;
    int64_t cur_dim = in_dim;
    for (size_t i = 0; i < widths.size(); ++i) {
        cur = fc(cur, cur_dim, widths[i], top);
        if (i + 1 < widths.size()) {
            cur = relu(cur);
        }
        cur_dim = widths[i];
    }
    return cur;
}

std::string
GraphBuilder::relu(const std::string& x)
{
    const std::string stem = uniq("relu");
    return addOp(makeRelu(stem, x, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::sigmoid(const std::string& x)
{
    const std::string stem = uniq("sigmoid");
    return addOp(makeSigmoid(stem, x, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::tanhAct(const std::string& x)
{
    const std::string stem = uniq("tanh");
    return addOp(makeTanh(stem, x, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::concat(const std::vector<std::string>& xs)
{
    const std::string stem = uniq("concat");
    return addOp(makeConcat(stem, xs, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::add(const std::string& a, const std::string& b)
{
    const std::string stem = uniq("add");
    return addOp(makeAdd(stem, a, b, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::sub(const std::string& a, const std::string& b)
{
    const std::string stem = uniq("sub");
    return addOp(makeSub(stem, a, b, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::mul(const std::string& a, const std::string& b)
{
    const std::string stem = uniq("mul");
    return addOp(makeMul(stem, a, b, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::softmax(const std::string& x)
{
    const std::string stem = uniq("softmax");
    return addOp(makeSoftmax(stem, x, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::reshape(const std::string& x, std::vector<int64_t> shape)
{
    const std::string stem = uniq("reshape");
    return addOp(makeReshape(stem, x, stem + "_y", std::move(shape)),
                 stem + "_y");
}

std::string
GraphBuilder::transpose(const std::string& x)
{
    const std::string stem = uniq("transpose");
    return addOp(makeTranspose(stem, x, stem + "_y"), stem + "_y");
}

std::string
GraphBuilder::batchMatMul(const std::string& a, const std::string& b)
{
    const std::string stem = uniq("bmm");
    return addOp(makeBatchMatMul(stem, a, b, stem + "_y"), stem + "_y");
}

std::pair<std::string, std::string>
GraphBuilder::gru(const std::string& x, int64_t in_dim, int64_t hidden,
                  const std::string& att)
{
    const std::string stem = uniq("gru");
    const std::string wx = stem + "_wx";
    const std::string wh = stem + "_wh";
    const std::string bias = stem + "_b";
    const std::string h0 = stem + "_h0";
    const std::string hseq = stem + "_hseq";
    const std::string hlast = stem + "_hlast";

    addWeight(wx, {3 * hidden, in_dim}, false);
    addWeight(wh, {3 * hidden, hidden}, false);
    addWeight(bias, {3 * hidden}, false);
    // The initial hidden state is batch-shaped, so it arrives as a
    // (zero-meaningful) dense input rather than a weight.
    denseInput(h0, hidden);

    const uint64_t params = static_cast<uint64_t>(3 * hidden) *
                            static_cast<uint64_t>(in_dim + hidden + 1);
    model_->features.fcParams += params;
    model_->features.gru = true;

    model_->net.addOp(makeGRULayer(stem, x, h0, wx, wh, bias, hseq, hlast,
                                   att));
    return {hseq, hlast};
}

void
GraphBuilder::finish(const std::string& blob)
{
    const std::string out = "output";
    model_->net.addOp(makeSigmoid("output_sigmoid", blob, out));
    model_->net.addExternalOutput(out);
    model_->outputBlob = out;
}

void
GraphBuilder::markUniqueCode(uint64_t bytes)
{
    RECSTACK_CHECK(!model_->net.ops().empty(),
                   "markUniqueCode with empty net");
    model_->net.ops().back()->setUniqueCodeBytes(bytes);
}

}  // namespace recstack
