#ifndef RECSTACK_OPS_OPERATOR_H_
#define RECSTACK_OPS_OPERATOR_H_

/**
 * @file
 * Operator: base class of every node in a recstack net.
 *
 * An operator has three responsibilities, kept separate so the
 * executor can run in profile-only mode for very large batch sizes:
 *
 *  - inferShapes(): allocate outputs with the right shapes/dtypes.
 *  - run():         real numeric execution (correctness-tested).
 *  - profile():     lower the current shapes to a KernelProfile for
 *                   the platform models.
 */

#include <memory>
#include <string>
#include <vector>

#include "ops/workspace.h"
#include "profile/kernel_profile.h"

namespace recstack {

/** Base class for all operators. */
class Operator
{
  public:
    Operator(std::string type, std::string name,
             std::vector<std::string> inputs,
             std::vector<std::string> outputs);
    virtual ~Operator();

    Operator(const Operator&) = delete;
    Operator& operator=(const Operator&) = delete;

    const std::string& type() const { return type_; }
    const std::string& name() const { return name_; }

    /**
     * Operator-type label used in profiles/breakdowns. Defaults to
     * type(); the TensorFlow frontend overrides it so the same kernel
     * reports under TF naming (FC -> FusedMatMul, Gather ->
     * ResourceGather), mirroring the paper's Fig. 7 mapping.
     */
    const std::string& displayType() const
    {
        return displayType_.empty() ? type_ : displayType_;
    }
    void setDisplayType(std::string display)
    {
        displayType_ = std::move(display);
    }
    const std::vector<std::string>& inputs() const { return inputs_; }
    const std::vector<std::string>& outputs() const { return outputs_; }

    /** Allocate/validate outputs from input shapes. */
    virtual void inferShapes(Workspace& ws) = 0;

    /** Numeric execution; outputs must already be allocated. */
    virtual void run(Workspace& ws) = 0;

    /** Lower the current shapes to an abstract workload descriptor. */
    virtual KernelProfile profile(const Workspace& ws) const = 0;

    /**
     * profile() with the unique-code rewrite applied: an op marked by
     * setUniqueCodeBytes() reports its own code region "op:<name>" of
     * that footprint. Every path that lowers a net (interpreted run,
     * compiled plan, characterizer) lowers through this.
     */
    KernelProfile lowerProfile(const Workspace& ws) const;

    /**
     * Mark this operator instance as having its own specialized code
     * region of @c bytes (e.g. DIN's per-lookup local activation units,
     * which the paper identifies as carrying unique instruction
     * reference locations). lowerProfile() rewrites the profile's code
     * identity accordingly.
     */
    void setUniqueCodeBytes(uint64_t bytes) { uniqueCodeBytes_ = bytes; }
    uint64_t uniqueCodeBytes() const { return uniqueCodeBytes_; }

  protected:
    /** i-th input / output tensor accessors. */
    const Tensor& in(const Workspace& ws, size_t i) const;
    Tensor& out(Workspace& ws, size_t i) const;
    const Tensor& outConst(const Workspace& ws, size_t i) const;

    /**
     * Start a profile pre-filled with op identity and the framework
     * dispatch cost every operator pays.
     */
    KernelProfile baseProfile() const;

    /** Add a sequential read/write stream over a whole tensor. */
    static void addSeqStream(KernelProfile& kp, const std::string& region,
                             const Tensor& t, bool is_write);

  private:
    std::string type_;
    std::string name_;
    std::string displayType_;
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
    uint64_t uniqueCodeBytes_ = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace recstack

#endif  // RECSTACK_OPS_OPERATOR_H_
