/**
 * @file
 * The one place an ExperimentSpec is spelled at the program's edge:
 * server requests, swex_cli's spec flags, `--connect` requests, sweep
 * FAIL lines and stress replay lines all go through this codec. Each
 * field's key, flag, range, default and error text live in one table
 * (spec_codec.cc), next to the cross-field rules (DESIGN §4.2).
 *
 * decode() turns a parsed request object into a spec: the server
 * parses one off the socket; swex_cli records its flags in a Request,
 * which renders to the line decode() then reads. Defaults: app worker,
 * nodes 16, protocol h5, victim 6, seed 12345; only `id` comes from
 * the caller.
 */

#ifndef SWEX_EXP_SPEC_CODEC_HH
#define SWEX_EXP_SPEC_CODEC_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/spec.hh"
#include "exp/wire_json.hh"

namespace swex
{
namespace codec
{

/** Request keys that frame a request (op, tag, canonical, cursor,
 *  chunk) rather than describe its spec. decode() skips them. */
bool isEnvelopeKey(std::string_view key);

/**
 * A request being built: its fields in the order first set, each value
 * already rendered as JSON. Setting a field again replaces its value
 * in place, so a repeated flag keeps its place and its last value.
 * "params.<k>" fields nest in one "params" object, placed where the
 * first of them was set.
 */
class Request
{
  public:
    /** Set field @p key to @p text spelled as on a command line: the
     *  field's kind makes it a JSON bool ("true" is true), a number
     *  (digits only; other text becomes a string, which decode()
     *  refuses as it refuses a bad number) or a string (every app
     *  parameter). */
    void set(const std::string &key, const std::string &text);

    /** Set field @p key to the parsed value @p v; a "params" object
     *  sets each of its members. */
    void put(const std::string &key, const wire::JsonValue &v);

    /** The fields as a run of ,"key":value members. */
    std::string members() const;

    /** The request as one JSON object line. */
    std::string line() const;

  private:
    void putJson(const std::string &key, std::string json);

    /** Key and rendered value; "params" with an empty value stands
     *  for the params list. */
    std::vector<std::pair<std::string, std::string>> entries;
    std::vector<std::pair<std::string, std::string>> params;
};

/** How many values swex_cli flag @p flag takes: 0 for a presence
 *  flag (--audit), 1 for a valued one (--nodes 16), -1 if @p flag
 *  sets no spec field. */
int flagValues(const std::string &flag);

/** Record spec flag @p flag, with @p value when it takes one, in
 *  @p req. --faults d[,u[,b]], --param k=v, --wss and --iters are
 *  command-line spellings of the fault-rate and params fields.
 *  @return "" on success, else why the value cannot be recorded. */
std::string setFlag(Request &req, const std::string &flag,
                    const std::string &value);

/** Build @p spec from request @p req. An unknown field is an error;
 *  a missing one takes its default, and a missing id @p default_id.
 *  @return "" on success, else the error message. */
std::string decode(const wire::JsonValue &req,
                   const std::string &default_id, ExperimentSpec &spec);

/** decode() of @p req's line. */
std::string decode(const Request &req, const std::string &default_id,
                   ExperimentSpec &spec);

/** @p spec as request fields: decode() of the result rebuilds it. */
Request toRequest(const ExperimentSpec &spec);

/** @p spec as a self-contained swex_cli command line. Wire-only
 *  fields (id, seq, track_sharing) have no flag and are left out. */
std::string toCommandLine(const ExperimentSpec &spec);

} // namespace codec
} // namespace swex

#endif // SWEX_EXP_SPEC_CODEC_HH
