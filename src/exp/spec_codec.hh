/**
 * @file
 * The one place an ExperimentSpec is spelled at the program's edge:
 * server requests, swex_cli's spec flags, `--connect` requests, sweep
 * FAIL lines and stress replay lines all go through this codec. Each
 * field's key, flag, range, default and error text live in one table
 * (spec_codec.cc), next to the cross-field rules (DESIGN §4.2).
 *
 * A request is a wire::JsonValue object: swex_cli builds one from its
 * flags, the server parses one off the socket, and decode() turns
 * either into a spec. Defaults: app worker, nodes 16, protocol h5,
 * victim 6, seed 12345; only `id` comes from the caller.
 */

#ifndef SWEX_EXP_SPEC_CODEC_HH
#define SWEX_EXP_SPEC_CODEC_HH

#include <string>

#include "exp/spec.hh"
#include "exp/wire_json.hh"

namespace swex
{
namespace codec
{

/** Request keys that frame a request (op, tag, canonical, cursor,
 *  chunk) rather than describe its spec. decode() skips them. */
bool isEnvelopeKey(const std::string &key);

/** Set field @p key of request @p req to @p value, replacing an
 *  earlier value. "params.<k>" sets one app parameter. */
void put(wire::JsonValue &req, const std::string &key,
         wire::JsonValue value);

/** put() with the value spelled as text, as on a command line: the
 *  field's kind makes it a JSON number, string or bool ("true"). The
 *  text is not checked here; decode() checks it like any value. */
void set(wire::JsonValue &req, const std::string &key,
         const std::string &text);

/** How many values swex_cli flag @p flag takes: 0 for a presence
 *  flag (--audit), 1 for a valued one (--nodes 16), -1 if @p flag
 *  sets no spec field. */
int flagValues(const std::string &flag);

/** Record spec flag @p flag, with @p value when it takes one, in
 *  @p req. --faults d[,u[,b]], --param k=v, --wss and --iters are
 *  command-line spellings of the fault-rate and params fields.
 *  @return "" on success, else why the value cannot be recorded. */
std::string setFlag(wire::JsonValue &req, const std::string &flag,
                    const std::string &value);

/** Build @p spec from request @p req. An unknown field is an error;
 *  a missing one takes its default, and a missing id @p default_id.
 *  @return "" on success, else the error message. */
std::string decode(const wire::JsonValue &req,
                   const std::string &default_id, ExperimentSpec &spec);

/** @p spec as request fields: decode() of the result rebuilds it. */
wire::JsonValue toRequest(const ExperimentSpec &spec);

/** @p spec as a self-contained swex_cli command line. Wire-only
 *  fields (id, seq, track_sharing) have no flag and are left out. */
std::string toCommandLine(const ExperimentSpec &spec);

} // namespace codec
} // namespace swex

#endif // SWEX_EXP_SPEC_CODEC_HH
